type error = Bad_opcode of int | Bad_function of { opcode : int; funct : int }

let pp_error ppf = function
  | Bad_opcode op -> Format.fprintf ppf "unknown opcode %#x" op
  | Bad_function { opcode; funct } ->
      Format.fprintf ppf "unknown function %#x for opcode %#x" funct opcode

let sext16 v = ((v land 0xffff) lxor 0x8000) - 0x8000
let sext21 v = ((v land 0x1fffff) lxor 0x100000) - 0x100000

let binop_of ~opcode ~funct =
  match (opcode, funct) with
  | 0x10, 0x20 -> Some Insn.Addq
  | 0x10, 0x29 -> Some Insn.Subq
  | 0x10, 0x2d -> Some Insn.Cmpeq
  | 0x10, 0x4d -> Some Insn.Cmplt
  | 0x10, 0x6d -> Some Insn.Cmple
  | 0x10, 0x1d -> Some Insn.Cmpult
  | 0x10, 0x3d -> Some Insn.Cmpule
  | 0x11, 0x00 -> Some Insn.And_
  | 0x11, 0x20 -> Some Insn.Bis
  | 0x11, 0x40 -> Some Insn.Xor
  | 0x11, 0x28 -> Some Insn.Ornot
  | 0x12, 0x39 -> Some Insn.Sll
  | 0x12, 0x34 -> Some Insn.Srl
  | 0x12, 0x3c -> Some Insn.Sra
  | 0x13, 0x20 -> Some Insn.Mulq
  | _ -> None

let decode w =
  let w = w land 0xffffffff in
  let opcode = w lsr 26 in
  let ra = Reg.of_int ((w lsr 21) land 0x1f) in
  let rb = Reg.of_int ((w lsr 16) land 0x1f) in
  let disp16 = sext16 w in
  let disp21 = sext21 w in
  match opcode with
  | 0x00 -> Ok (Insn.Call_pal (w land 0x3ffffff))
  | 0x08 -> Ok (Insn.Lda { ra; rb; disp = disp16 })
  | 0x09 -> Ok (Insn.Ldah { ra; rb; disp = disp16 })
  | 0x29 -> Ok (Insn.Ldq { ra; rb; disp = disp16 })
  | 0x2d -> Ok (Insn.Stq { ra; rb; disp = disp16 })
  | 0x30 -> Ok (Insn.Br { ra; disp = disp21 })
  | 0x34 -> Ok (Insn.Bsr { ra; disp = disp21 })
  | 0x38 -> Ok (Insn.Bcond { cond = Blbc; ra; disp = disp21 })
  | 0x39 -> Ok (Insn.Bcond { cond = Beq; ra; disp = disp21 })
  | 0x3a -> Ok (Insn.Bcond { cond = Blt; ra; disp = disp21 })
  | 0x3b -> Ok (Insn.Bcond { cond = Ble; ra; disp = disp21 })
  | 0x3c -> Ok (Insn.Bcond { cond = Blbs; ra; disp = disp21 })
  | 0x3d -> Ok (Insn.Bcond { cond = Bne; ra; disp = disp21 })
  | 0x3e -> Ok (Insn.Bcond { cond = Bge; ra; disp = disp21 })
  | 0x3f -> Ok (Insn.Bcond { cond = Bgt; ra; disp = disp21 })
  | 0x1a -> (
      let hint = w land 0x3fff in
      match (w lsr 14) land 0x3 with
      | 0 -> Ok (Insn.Jump { kind = Jmp; ra; rb; hint })
      | 1 -> Ok (Insn.Jump { kind = Jsr; ra; rb; hint })
      | 2 -> Ok (Insn.Jump { kind = Ret; ra; rb; hint })
      | k -> Error (Bad_function { opcode; funct = k }))
  | 0x10 | 0x11 | 0x12 | 0x13 -> (
      let funct = (w lsr 5) land 0x7f in
      let rc = Reg.of_int (w land 0x1f) in
      match binop_of ~opcode ~funct with
      | None -> Error (Bad_function { opcode; funct })
      | Some op ->
          let rb =
            if (w lsr 12) land 1 = 1 then Insn.Imm ((w lsr 13) land 0xff)
            else Insn.Rb rb
          in
          Ok (Insn.Op { op; ra; rb; rc }))
  | _ -> Error (Bad_opcode opcode)

(* [decode w] succeeds exactly when this holds; checked without building
   the instruction, so a whole-stream check allocates nothing *)
let decodable w =
  let opcode = (w land 0xffffffff) lsr 26 in
  match opcode with
  | 0x00 | 0x08 | 0x09 | 0x29 | 0x2d | 0x30 | 0x34 | 0x38 | 0x39 | 0x3a
  | 0x3b | 0x3c | 0x3d | 0x3e | 0x3f -> true
  | 0x1a -> (w lsr 14) land 0x3 <> 3
  | 0x10 | 0x11 | 0x12 | 0x13 ->
      Option.is_some (binop_of ~opcode ~funct:((w lsr 5) land 0x7f))
  | _ -> false

type stream_error =
  | Truncated of { length : int }
  | Undecodable of { offset : int; error : error }

let pp_stream_error ppf = function
  | Truncated { length } ->
      Format.fprintf ppf "length %d is not a multiple of 4" length
  | Undecodable { offset; error } ->
      Format.fprintf ppf "%a at offset %#x" pp_error error offset

let word b k = Int32.to_int (Bytes.get_int32_le b (4 * k)) land 0xffffffff

let check b =
  let len = Bytes.length b in
  if len land 3 <> 0 then Error (Truncated { length = len })
  else
    let n = len / 4 in
    let rec go k =
      if k = n then Ok ()
      else
        let w = word b k in
        if decodable w then go (k + 1)
        else
          match decode w with
          | Error error -> Error (Undecodable { offset = 4 * k; error })
          | Ok _ -> go (k + 1) (* unreachable: [decodable] agrees *)
    in
    go 0

let decode_exn w =
  match decode w with
  | Ok i -> i
  | Error e -> invalid_arg (Format.asprintf "Decode.decode_exn: %a" pp_error e)

let stream_error_offset = function
  | Truncated { length } -> length land lnot 3
  | Undecodable { offset; _ } -> offset

let of_bytes b =
  let len = Bytes.length b in
  if len land 3 <> 0 then Error (Truncated { length = len })
  else
    let n = len / 4 in
    let out = Array.make n Insn.nop in
    let rec go k =
      if k = n then Ok out
      else
        match decode (word b k) with
        | Ok i ->
            out.(k) <- i;
            go (k + 1)
        | Error error -> Error (Undecodable { offset = 4 * k; error })
    in
    go 0

type kind = Lda | Ldah | Ldq | Stq | Branch | Other

let kind w =
  match (w land 0xffffffff) lsr 26 with
  | 0x08 -> Lda
  | 0x09 -> Ldah
  | 0x29 -> Ldq
  | 0x2d -> Stq
  | 0x30 | 0x34 | 0x38 | 0x39 | 0x3a | 0x3b | 0x3c | 0x3d | 0x3e | 0x3f ->
      Branch
  | _ -> Other

let ra w = Reg.of_int ((w lsr 21) land 0x1f)
let rb w = Reg.of_int ((w lsr 16) land 0x1f)
let branch_disp w = sext21 w
