module I = Isa.Insn
module R = Isa.Reg

let insn = Alcotest.testable (fun ppf i -> I.pp ppf i) I.equal

(* --- generators --- *)

let gen_reg = QCheck.Gen.map R.of_int (QCheck.Gen.int_range 0 31)
let gen_disp16 = QCheck.Gen.int_range (-32768) 32767
let gen_disp21 = QCheck.Gen.int_range (-1048576) 1048575

let gen_cond =
  QCheck.Gen.oneofl
    I.[ Beq; Bne; Blt; Ble; Bge; Bgt; Blbc; Blbs ]

let gen_binop =
  QCheck.Gen.oneofl
    I.[ Addq; Subq; Mulq; Cmpeq; Cmplt; Cmple; Cmpult; Cmpule; And_; Bis;
        Xor; Ornot; Sll; Srl; Sra ]

let gen_operand =
  QCheck.Gen.(
    oneof
      [ map (fun r -> I.Rb r) gen_reg;
        map (fun n -> I.Imm n) (int_range 0 255) ])

let gen_insn =
  QCheck.Gen.(
    oneof
      [ map3 (fun ra rb disp -> I.Lda { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Ldah { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Ldq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Stq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map2 (fun ra disp -> I.Br { ra; disp }) gen_reg gen_disp21;
        map2 (fun ra disp -> I.Bsr { ra; disp }) gen_reg gen_disp21;
        map3 (fun cond ra disp -> I.Bcond { cond; ra; disp }) gen_cond gen_reg
          gen_disp21;
        (let* kind = oneofl I.[ Jmp; Jsr; Ret ] in
         let* ra = gen_reg and* rb = gen_reg and* hint = int_range 0 0x3fff in
         return (I.Jump { kind; ra; rb; hint }));
        (let* op = gen_binop in
         let* ra = gen_reg and* rb = gen_operand and* rc = gen_reg in
         return (I.Op { op; ra; rb; rc }));
        map (fun f -> I.Call_pal f) (int_range 0 0x3ffffff) ])

let arb_insn = QCheck.make ~print:I.to_string gen_insn

(* --- unit tests --- *)

let test_roundtrip_examples () =
  let samples =
    [ I.Lda { ra = R.gp; rb = R.pv; disp = 28576 };
      I.Ldah { ra = R.gp; rb = R.ra; disp = 8192 };
      I.Ldq { ra = R.t0; rb = R.gp; disp = 188 };
      I.Stq { ra = R.v0; rb = R.sp; disp = -8 };
      I.Br { ra = R.zero; disp = -17 };
      I.Bsr { ra = R.ra; disp = 1048575 };
      I.Bcond { cond = I.Bne; ra = R.t3; disp = -1048576 };
      I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 };
      I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.t1; rc = R.t2 };
      I.Op { op = I.Sll; ra = R.s0; rb = I.Imm 63; rc = R.s1 };
      I.nop;
      I.Call_pal 0x83 ]
  in
  List.iter
    (fun i ->
      Alcotest.check insn "roundtrip" i (Isa.Decode.decode_exn (Isa.Encode.insn i)))
    samples

let test_known_encodings () =
  (* spot-check against hand-computed Alpha-format words *)
  Alcotest.(check int) "lda r1, 1(r31)"
    ((0x08 lsl 26) lor (1 lsl 21) lor (31 lsl 16) lor 1)
    (Isa.Encode.insn (I.Lda { ra = R.t0; rb = R.zero; disp = 1 }));
  Alcotest.(check int) "nop is bis r31,r31,r31"
    ((0x11 lsl 26) lor (31 lsl 21) lor (31 lsl 16) lor (0x20 lsl 5) lor 31)
    (Isa.Encode.insn I.nop)

let test_nop_detection () =
  Alcotest.(check bool) "canonical nop" true (I.is_nop I.nop);
  Alcotest.(check bool) "lda r31 is a nop" true
    (I.is_nop (I.Lda { ra = R.zero; rb = R.t0; disp = 4 }));
  Alcotest.(check bool) "addq to r0 is not a nop" false
    (I.is_nop (I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.v0 }))

let test_defs_uses () =
  let l = I.Ldq { ra = R.t0; rb = R.gp; disp = 8 } in
  Alcotest.(check (list string)) "ldq defs" [ "t0" ]
    (List.map R.name (I.defs l));
  Alcotest.(check (list string)) "ldq uses" [ "gp" ]
    (List.map R.name (I.uses l));
  let s = I.Stq { ra = R.t1; rb = R.sp; disp = 0 } in
  Alcotest.(check (list string)) "stq defs" [] (List.map R.name (I.defs s));
  let z = I.Op { op = I.Addq; ra = R.zero; rb = I.Rb R.zero; rc = R.zero } in
  Alcotest.(check (list string)) "zero never reported" []
    (List.map R.name (I.defs z @ I.uses z))

let test_split32 () =
  List.iter
    (fun d ->
      let hi, lo = I.split32 d in
      Alcotest.(check int) (Printf.sprintf "split32 %d recombines" d) d
        ((hi * 65536) + lo);
      Alcotest.(check bool) "lo fits" true (I.fits_disp16 lo);
      Alcotest.(check bool) "hi fits" true (I.fits_disp16 hi))
    [ 0; 1; -1; 32767; 32768; -32768; -32769; 0x12345678; -0x12345678;
      0x7fff7fff; -0x7fff8000 ]

let test_branch_disp () =
  let b = I.Bsr { ra = R.ra; disp = 42 } in
  Alcotest.(check (option int)) "branch_disp" (Some 42) (I.branch_disp b);
  Alcotest.check insn "with_branch_disp"
    (I.Bsr { ra = R.ra; disp = -1 })
    (I.with_branch_disp b (-1));
  Alcotest.check_raises "with_branch_disp on non-branch"
    (Invalid_argument "Insn.with_branch_disp: not a PC-relative branch")
    (fun () -> ignore (I.with_branch_disp I.nop 0))

let test_falls_through () =
  Alcotest.(check bool) "br does not fall through" false
    (I.falls_through (I.Br { ra = R.zero; disp = 0 }));
  Alcotest.(check bool) "ret does not fall through" false
    (I.falls_through (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }));
  Alcotest.(check bool) "jsr falls through" true
    (I.falls_through (I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 }));
  Alcotest.(check bool) "bcond falls through" true
    (I.falls_through (I.Bcond { cond = I.Beq; ra = R.t0; disp = 3 }))

(* --- properties --- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_insn
    (fun i -> I.equal i (Isa.Decode.decode_exn (Isa.Encode.insn i)))

let prop_encode_32bit =
  QCheck.Test.make ~name:"encodings fit 32 bits" ~count:2000 arb_insn
    (fun i ->
      let w = Isa.Encode.insn i in
      w >= 0 && w < 1 lsl 32)

let prop_decode_total =
  QCheck.Test.make ~name:"decode never raises on arbitrary words" ~count:2000
    QCheck.(int_bound ((1 lsl 32) - 1))
    (fun w ->
      match Isa.Decode.decode w with Ok _ | Error _ -> true)

let prop_split32 =
  QCheck.Test.make ~name:"split32 recombines" ~count:1000
    QCheck.(int_range (-2147450880) 2147450879)
    (fun d ->
      QCheck.assume (I.fits_disp32 d);
      let hi, lo = I.split32 d in
      (hi * 65536) + lo = d && I.fits_disp16 lo && I.fits_disp16 hi)

(* --- scheduling --- *)

let gen_sched_insn =
  (* straight-line instructions only *)
  QCheck.Gen.(
    oneof
      [ map3 (fun ra rb disp -> I.Lda { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Ldq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        map3 (fun ra rb disp -> I.Stq { ra; rb; disp }) gen_reg gen_reg gen_disp16;
        (let* op = gen_binop in
         let* ra = gen_reg and* rb = gen_operand and* rc = gen_reg in
         return (I.Op { op; ra; rb; rc })) ])

let prop_schedule_valid =
  QCheck.Test.make ~name:"list scheduling yields a valid order" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 20) gen_sched_insn))
    (fun insns ->
      let nodes =
        Array.of_list (List.map (fun i -> Isa.Schedule.node_of_insn i) insns)
      in
      let perm = Isa.Schedule.order nodes in
      Isa.Schedule.is_valid_order nodes perm)

let test_schedule_dependent_chain () =
  (* a fully dependent chain cannot be reordered *)
  let chain =
    [ I.Lda { ra = R.t0; rb = R.zero; disp = 1 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.t0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 2; rc = R.t0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 3; rc = R.t0 } ]
  in
  let nodes = Array.of_list (List.map Isa.Schedule.node_of_insn chain) in
  let perm = Isa.Schedule.order nodes in
  Alcotest.(check (array int)) "identity order" [| 0; 1; 2; 3 |] perm

let test_schedule_fills_load_latency () =
  (* independent work should move between a load and its use *)
  let block =
    [ I.Ldq { ra = R.t0; rb = R.sp; disp = 0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.t1 };
      I.Op { op = I.Addq; ra = R.t2; rb = I.Imm 1; rc = R.t3 };
      I.Op { op = I.Addq; ra = R.t4; rb = I.Imm 1; rc = R.t5 } ]
  in
  let nodes = Array.of_list (List.map Isa.Schedule.node_of_insn block) in
  let perm = Isa.Schedule.order nodes in
  let pos = Array.make 4 0 in
  Array.iteri (fun slot i -> pos.(i) <- slot) perm;
  Alcotest.(check bool) "use of load is not immediately after it" true
    (pos.(1) > pos.(0) + 1)

let test_pairing () =
  let op = I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.t1 } in
  let ld = I.Ldq { ra = R.t2; rb = R.sp; disp = 0 } in
  Alcotest.(check bool) "op pairs with independent load" true
    (Isa.Latency.can_pair op ld);
  let dependent_ld = I.Ldq { ra = R.t2; rb = R.t1; disp = 0 } in
  Alcotest.(check bool) "no pairing on RAW dependence" false
    (Isa.Latency.can_pair op dependent_ld);
  Alcotest.(check bool) "two ops do not pair (same pipe)" false
    (Isa.Latency.can_pair op (I.Op { op = I.Subq; ra = R.t3; rb = I.Imm 1; rc = R.t4 }))

(* [decodable] is [decode]'s success predicate, over every opcode, every
   function field and every jump kind *)
let test_decodable_agrees () =
  for opcode = 0 to 63 do
    for funct = 0 to 127 do
      for kind = 0 to 3 do
        let w = (opcode lsl 26) lor (kind lsl 14) lor (funct lsl 5) lor 0x1f in
        Alcotest.(check bool)
          (Printf.sprintf "word %#x" w)
          (Result.is_ok (Isa.Decode.decode w))
          (Isa.Decode.decodable w)
      done
    done
  done

let test_stream_check () =
  let words ws =
    let b = Bytes.create (4 * List.length ws) in
    List.iteri (fun k w -> Bytes.set_int32_le b (4 * k) (Int32.of_int w)) ws;
    b
  in
  let nop = Isa.Encode.insn I.nop in
  let result =
    Alcotest.testable
      (fun ppf -> function
        | Ok () -> Format.fprintf ppf "Ok"
        | Error e -> Isa.Decode.pp_stream_error ppf e)
      ( = )
  in
  Alcotest.check result "empty" (Ok ()) (Isa.Decode.check Bytes.empty);
  Alcotest.check result "whole words" (Ok ()) (Isa.Decode.check (words [ nop; nop ]));
  Alcotest.check result "odd length"
    (Error (Isa.Decode.Truncated { length = 7 }))
    (Isa.Decode.check (Bytes.sub (words [ nop; nop ]) 0 7));
  Alcotest.check result "bad word at its offset"
    (Error
       (Isa.Decode.Undecodable
          { offset = 4; error = Isa.Decode.Bad_opcode 0x3 }))
    (Isa.Decode.check (words [ nop; 0x3 lsl 26; nop ]))

let mask_of_regs regs =
  List.fold_left (fun m r -> m lor I.reg_bit r) 0 regs

(* the scheduler's dependence masks are exactly the instruction's
   defs/uses lists *)
let test_schedule_node_masks () =
  List.iter
    (fun insn ->
      let node = Isa.Schedule.node_of_insn insn in
      Alcotest.(check int)
        (Format.asprintf "defs mask of %a" I.pp insn)
        (mask_of_regs (I.defs insn)) node.Isa.Schedule.defs;
      Alcotest.(check int)
        (Format.asprintf "uses mask of %a" I.pp insn)
        (mask_of_regs (I.uses insn)) node.Isa.Schedule.uses)
    [ I.Lda { ra = R.t0; rb = R.sp; disp = 8 };
      I.Lda { ra = R.zero; rb = R.zero; disp = 0 };
      I.Ldah { ra = R.gp; rb = R.t11; disp = 1 };
      I.Ldq { ra = R.a0; rb = R.gp; disp = -16 };
      I.Stq { ra = R.t1; rb = R.sp; disp = 0 };
      I.Stq { ra = R.zero; rb = R.sp; disp = 0 };
      I.Br { ra = R.zero; disp = 3 };
      I.Bsr { ra = R.ra; disp = -2 };
      I.Bcond { cond = I.Beq; ra = R.t2; disp = 1 };
      I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 };
      I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.t1; rc = R.t2 };
      I.Op { op = I.Subq; ra = R.t3; rb = I.Imm 5; rc = R.zero };
      I.Op { op = I.Mulq; ra = R.t3; rb = I.Rb R.t3; rc = R.t3 };
      I.Call_pal 0x83;
      I.nop ]

let suite =
  ( "isa",
    [ Alcotest.test_case "roundtrip examples" `Quick test_roundtrip_examples;
      Alcotest.test_case "known encodings" `Quick test_known_encodings;
      Alcotest.test_case "nop detection" `Quick test_nop_detection;
      Alcotest.test_case "defs and uses" `Quick test_defs_uses;
      Alcotest.test_case "split32" `Quick test_split32;
      Alcotest.test_case "branch displacement" `Quick test_branch_disp;
      Alcotest.test_case "fall-through" `Quick test_falls_through;
      Alcotest.test_case "dependent chain order" `Quick
        test_schedule_dependent_chain;
      Alcotest.test_case "load latency filling" `Quick
        test_schedule_fills_load_latency;
      Alcotest.test_case "dual-issue pairing" `Quick test_pairing;
      Testutil.qtest prop_roundtrip;
      Testutil.qtest prop_encode_32bit;
      Testutil.qtest prop_decode_total;
      Testutil.qtest prop_split32;
      Testutil.qtest prop_schedule_valid;
      Alcotest.test_case "decodable agrees with decode" `Quick
        test_decodable_agrees;
      Alcotest.test_case "stream check errors" `Quick test_stream_check;
      Alcotest.test_case "schedule node masks match lists" `Quick
        test_schedule_node_masks ] )
