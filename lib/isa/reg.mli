(** Integer registers of the AXP-like 64-bit architecture.

    The architecture has 32 integer registers. Register 31 always reads as
    zero and writes to it are discarded. The OSF/1 software conventions give
    several registers dedicated roles that the address-calculation machinery
    in this library depends on:

    - [gp] (r29) — the global pointer, addressing the current global address
      table (GAT) with a signed 16-bit displacement;
    - [pv] (r27) — the procedure value: at procedure entry it holds the entry
      address of the procedure, which the prologue uses to compute [gp];
    - [ra] (r26) — the return address, used after a call to recompute [gp];
    - [sp] (r30) — the stack pointer;
    - [zero] (r31) — always zero. *)

type t = private int
(** A register number in [0, 31]. *)

val of_int : int -> t
(** [of_int n] is register [n]. Raises [Invalid_argument] unless
    [0 <= n <= 31]. *)

val to_int : t -> int

val equal : t -> t -> bool

val bit : t -> int
(** [bit r] is [r] as a register bitmask, [1 lsl r], except that [zero]
    is [0]: no register mask ever holds register 31. *)

(** {1 Conventional registers} *)

val v0 : t (* r0  — function result *)
val t0 : t (* r1 *)
val t1 : t (* r2 *)
val t2 : t (* r3 *)
val t3 : t (* r4 *)
val t4 : t (* r5 *)
val t5 : t (* r6 *)
val t6 : t (* r7 *)
val t7 : t (* r8 *)
val s0 : t (* r9  — callee-saved *)
val s1 : t (* r10 *)
val s2 : t (* r11 *)
val s3 : t (* r12 *)
val s4 : t (* r13 *)
val s5 : t (* r14 *)
val fp : t (* r15 *)
val a0 : t (* r16 — first argument *)
val a1 : t (* r17 *)
val a2 : t (* r18 *)
val a3 : t (* r19 *)
val a4 : t (* r20 *)
val a5 : t (* r21 *)
val t8 : t (* r22 *)
val t9 : t (* r23 *)
val t10 : t (* r24 *)
val t11 : t (* r25 *)
val ra : t (* r26 — return address *)
val pv : t (* r27 — procedure value *)
val at : t (* r28 — assembler temporary *)
val gp : t (* r29 — global pointer *)
val sp : t (* r30 — stack pointer *)
val zero : t (* r31 — wired zero *)

val name : t -> string
(** [name r] is the conventional assembler name, e.g. ["gp"], ["t3"]. *)

val pp : Format.formatter -> t -> unit
(** Prints the conventional name. *)

val caller_saved : t list
(** Temporaries and argument registers clobbered by a call (includes [v0],
    [t0]-[t11], [a0]-[a5], [ra], [pv], [at]). *)
