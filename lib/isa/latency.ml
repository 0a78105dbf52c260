type pipe = E | A

let pipe_of = function
  | Insn.Op _ | Insn.Lda _ | Insn.Ldah _ -> E
  | Insn.Ldq _ | Insn.Stq _ | Insn.Br _ | Insn.Bsr _ | Insn.Bcond _
  | Insn.Jump _ | Insn.Call_pal _ -> A

let latency = function
  | Insn.Ldq _ -> 3
  | Insn.Op { op = Mulq; _ } -> 8
  | _ -> 1

let can_pair a b =
  pipe_of a <> pipe_of b
  && (not (Insn.is_branch a))
  && (not (Insn.is_branch b && Insn.is_branch a))
  && (match a with Insn.Call_pal _ -> false | _ -> true)
  && (match b with Insn.Call_pal _ -> false | _ -> true)
  &&
  Insn.defs_mask a land (Insn.uses_mask b lor Insn.defs_mask b) = 0
