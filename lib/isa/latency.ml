type pipe = E | A

let pipe_of = function
  | Insn.Op _ | Insn.Lda _ | Insn.Ldah _ -> E
  | Insn.Ldq _ | Insn.Stq _ | Insn.Br _ | Insn.Bsr _ | Insn.Bcond _
  | Insn.Jump _ | Insn.Call_pal _ -> A

let latency = function
  | Insn.Ldq _ -> 3
  | Insn.Op { op = Mulq; _ } -> 8
  | _ -> 1
