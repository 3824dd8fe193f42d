(* The simulated machine's core state and semantics, shared by both
   interpreters: the symbolic reference ([Cpu.run_reference]) and the
   block-fused superinstruction path ([Blocks.run]). Keeping it in its
   own module breaks the dependency cycle Blocks <-> Cpu would otherwise
   have. *)

type config = {
  icache_bytes : int;
  dcache_bytes : int;
  line_bytes : int;
  icache_miss_penalty : int;
  dcache_miss_penalty : int;
  branch_penalty : int;
  dual_issue : bool;
  heap_max : int;
  max_insns : int;
}

let default_config =
  { icache_bytes = 8192;
    dcache_bytes = 8192;
    line_bytes = 32;
    icache_miss_penalty = 8;
    dcache_miss_penalty = 10;
    branch_penalty = 1;
    dual_issue = true;
    heap_max = 1 lsl 24;
    max_insns = 400_000_000 }

type stats = {
  insns : int;
  cycles : int;
  loads : int;
  stores : int;
  icache_misses : int;
  dcache_misses : int;
  nops_executed : int;
}

type outcome = {
  exit_code : int64;
  output : string;
  stats : stats;
}

type error =
  | Unaligned_access of int
  | Out_of_range_access of int
  | Undecodable of int
  | Bad_syscall of int64
  | Unknown_pal of int
  | Heap_exhausted
  | Insn_limit_reached

let pp_error ppf = function
  | Unaligned_access a -> Format.fprintf ppf "unaligned access at %#x" a
  | Out_of_range_access a -> Format.fprintf ppf "access out of range at %#x" a
  | Undecodable a -> Format.fprintf ppf "undecodable instruction at %#x" a
  | Bad_syscall v -> Format.fprintf ppf "unknown system call %Ld" v
  | Unknown_pal c -> Format.fprintf ppf "unknown PALcode function %#x" c
  | Heap_exhausted -> Format.fprintf ppf "heap exhausted"
  | Insn_limit_reached -> Format.fprintf ppf "instruction limit reached"

exception Fault of error

module R = Isa.Reg

type machine = {
  cfg : config;
  text_base : int;
  data_base : int;
  mutable data : Bytes.t;      (* allocated prefix of data + heap *)
  data_end : int;              (* logical end of data + heap *)
  mutable stack_base : int;    (* low end of the allocated stack *)
  mutable stack : Bytes.t;     (* allocated top of the stack *)
  regs : Bytes.t;
  mutable brk : int;
  heap_limit : int;
  out : Buffer.t;
  icache : Cache.t;
  dcache : Cache.t;
  ready : int array;           (* cycle at which each register is available *)
  mutable ninsns : int;
  mutable loads : int;
  mutable stores : int;
  mutable nops : int;
}

(* Memory is allocated on demand. Logically, data + heap spans
   data_base .. heap_base + heap_max and the stack spans
   stack_top - stack_bytes .. stack_top (ends exclusive); [data] holds
   only a prefix of the first and [stack] only a suffix of the second,
   both multiples of 8 bytes long. A machine starts with the statics
   plus [heap_chunk] bytes of heap and [stack_chunk] bytes of stack: the
   suite's programs touch a few tens of KB, while zero-filling the whole
   logical map (about 17 MB) would dominate a short simulation's
   cost. *)
let heap_chunk = 16 * 1024
let stack_chunk = 8 * 1024
let stack_top = Linker.Layout.stack_top
let stack_lo = stack_top - Linker.Layout.stack_bytes

(* [ready] has 33 slots, not 32. Register 31 is never read or written
   through uses/defs masks (the masks exclude it), so [ready.(31)] is
   pinned at 0 and fused executors use it as the "no operands" read;
   slot 32 is a write sink for instructions with no destination. *)
let create_machine config (image : Linker.Image.t) =
  let statics = image.Linker.Image.heap_base - image.Linker.Image.data_base in
  (* a heap_max that is not a multiple of 8 leaves a partial last word,
     which no aligned access can use *)
  let data_len = (statics + config.heap_max) land lnot 7 in
  let data = Bytes.make (min data_len (statics + heap_chunk)) '\000' in
  Bytes.blit image.Linker.Image.data 0 data 0
    (Bytes.length image.Linker.Image.data);
  { cfg = config;
    text_base = image.Linker.Image.text_base;
    data_base = image.Linker.Image.data_base;
    data;
    data_end = image.Linker.Image.data_base + data_len;
    stack_base = stack_top - stack_chunk;
    stack = Bytes.make stack_chunk '\000';
    regs = Bytes.make 256 '\000';
    brk = image.Linker.Image.heap_base;
    heap_limit = image.Linker.Image.heap_base + config.heap_max - 16;
    out = Buffer.create 256;
    icache = Cache.create ~size_bytes:config.icache_bytes
               ~line_bytes:config.line_bytes;
    dcache = Cache.create ~size_bytes:config.dcache_bytes
               ~line_bytes:config.line_bytes;
    ready = Array.make 33 0;
    ninsns = 0;
    loads = 0;
    stores = 0;
    nops = 0 }

(* The register file is raw bytes, not an [int64 array]: boxed-pointer
   array stores would drag the GC write barrier ([caml_modify]) into
   every retired instruction, and the bytes primitives let the compiler
   keep whole read-op-write chains unboxed. Register numbers come from
   5-bit instruction fields, so the unchecked primitives stay in
   bounds by construction. Byte order inside the file is host-native —
   values only ever round-trip whole.

   NOTE: [Blocks] carries its own module-local copies of these
   primitives (and of [bool64] and the inline part of [read64]/[write64],
   whose cold path below it shares) — the build's [-opaque] flag makes
   cross-module calls indirect and boxes their int64 arguments, which is
   fatal in that hot loop. If the semantics here change, change
   blocks.ml to match. *)
external reg_read : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external reg_write : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Writes to register 31 are discarded, so r31 stays 0 forever and
   reads need no special case. *)
let[@inline] rget m r = reg_read m.regs (r lsl 3)
let[@inline] rset m r v = if r <> 31 then reg_write m.regs (r lsl 3) v

(* The cold path of every aligned access that misses the allocated
   parts, from here and from [Blocks]' copies of [read64]/[write64]: a
   read of a never-written word inside the logical regions is 0; a write
   grows the allocated part geometrically (the heap upward, the stack
   downward) to cover it, capped at the logical end; anything else is
   out of range. Data is tested before the stack, as the hot path does. *)
let read_cold m addr =
  if not
       ((addr >= m.data_base && addr < m.data_end)
       || (addr >= stack_lo && addr < stack_top))
  then raise (Fault (Out_of_range_access addr))

let write_cold m addr v =
  if addr >= m.data_base && addr < m.data_end then begin
    let old = Bytes.length m.data in
    let len =
      min (m.data_end - m.data_base) (max (addr - m.data_base + 8) (2 * old))
    in
    let data = Bytes.extend m.data 0 (len - old) in
    Bytes.fill data old (len - old) '\000';
    m.data <- data;
    Bytes.set_int64_le data (addr - m.data_base) v
  end
  else if addr >= stack_lo && addr < stack_top then begin
    let old = Bytes.length m.stack in
    let len = min (stack_top - stack_lo) (max (stack_top - addr) (2 * old)) in
    let stack = Bytes.extend m.stack (len - old) 0 in
    Bytes.fill stack 0 (len - old) '\000';
    m.stack <- stack;
    m.stack_base <- stack_top - len;
    Bytes.set_int64_le stack (addr - m.stack_base) v
  end
  else raise (Fault (Out_of_range_access addr))

let read64 m addr =
  if addr land 7 <> 0 then raise (Fault (Unaligned_access addr));
  if addr >= m.data_base && addr < m.data_base + Bytes.length m.data then
    Bytes.get_int64_le m.data (addr - m.data_base)
  else if addr >= m.stack_base && addr < m.stack_base + Bytes.length m.stack
  then Bytes.get_int64_le m.stack (addr - m.stack_base)
  else (read_cold m addr; 0L)

let write64 m addr v =
  if addr land 7 <> 0 then raise (Fault (Unaligned_access addr));
  if addr >= m.data_base && addr < m.data_base + Bytes.length m.data then
    Bytes.set_int64_le m.data (addr - m.data_base) v
  else if addr >= m.stack_base && addr < m.stack_base + Bytes.length m.stack
  then Bytes.set_int64_le m.stack (addr - m.stack_base) v
  else write_cold m addr v

let bool64 c = if c then 1L else 0L

(* System calls; returns [Some code] when the program exits. *)
let syscall m =
  let v0 = rget m (R.to_int R.v0) in
  let a0 = rget m (R.to_int R.a0) in
  match v0 with
  | 0L -> Some a0
  | 1L ->
      Buffer.add_string m.out (Int64.to_string a0);
      None
  | 2L ->
      Buffer.add_char m.out (Char.chr (Int64.to_int a0 land 0xff));
      None
  | 3L ->
      let rec go addr =
        let q = read64 m (Int64.to_int addr) in
        if not (Int64.equal q 0L) then begin
          Buffer.add_char m.out (Char.chr (Int64.to_int q land 0xff));
          go (Int64.add addr 8L)
        end
      in
      go a0;
      None
  | 4L ->
      let n = (Int64.to_int a0 + 15) land lnot 15 in
      if m.brk + n > m.heap_limit then raise (Fault Heap_exhausted);
      rset m (R.to_int R.v0) (Int64.of_int m.brk);
      m.brk <- m.brk + n;
      None
  | v -> raise (Fault (Bad_syscall v))

let boot m (image : Linker.Image.t) =
  rset m (R.to_int R.sp) (Int64.of_int (stack_top - 64));
  rset m (R.to_int R.pv) (Int64.of_int image.Linker.Image.entry)

let outcome_of m ~last_issue ~exit_code =
  { exit_code;
    output = Buffer.contents m.out;
    stats =
      { insns = m.ninsns;
        cycles = last_issue + 1;
        loads = m.loads;
        stores = m.stores;
        icache_misses = Cache.misses m.icache;
        dcache_misses = Cache.misses m.dcache;
        nops_executed = m.nops } }

(* --- bitmask iteration helpers --- *)

(* number-of-trailing-zeros of an isolated bit below 2^32, by de Bruijn
   multiplication — the stdlib has no ctz intrinsic *)
let ntz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] ntz b = Array.unsafe_get ntz_table ((b * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* max over [ready.(i)] for every bit [i] of [mask]; 0 on the empty mask *)
let[@inline] max_ready ready mask =
  if mask = 0 then 0
  else begin
    let acc = ref 0 and m = ref mask in
    while !m <> 0 do
      let b = !m land (- !m) in
      let r = Array.unsafe_get ready (ntz b) in
      if r > !acc then acc := r;
      m := !m land (!m - 1)
    done;
    !acc
  end

let[@inline] set_ready ready mask t =
  let m = ref mask in
  while !m <> 0 do
    let b = !m land (- !m) in
    Array.unsafe_set ready (ntz b) t;
    m := !m land (!m - 1)
  done
