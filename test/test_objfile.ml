module I = Isa.Insn
module R = Isa.Reg
module O = Objfile

(* A small hand-built unit exercising every record kind. *)
let sample_unit () =
  let m = Minic.Masm.create "sample.o" in
  let entry = Minic.Masm.fresh_label m in
  let lo = Minic.Masm.fresh_id m in
  let gl = Minic.Masm.fresh_id m in
  Minic.Masm.add_proc m ~name:"f"
    [ Minic.Masm.Label entry;
      Minic.Masm.Gpsetup_hi { base = R.pv; anchor = entry; lo };
      Minic.Masm.Gpsetup_lo { id = lo };
      Minic.Masm.Gatload { id = gl; ra = R.t0; entry = O.Gat_entry.addr "g" };
      Minic.Masm.Lituse
        { insn = I.Ldq { ra = R.v0; rb = R.t0; disp = 0 }; load = gl; jsr = false };
      Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }) ];
  Minic.Masm.add_global m ~name:"g" ~section:`Sdata ~size_bytes:8
    ~init:[| 7L |] ();
  Minic.Masm.add_global m ~name:"ptr" ~section:`Data ~size_bytes:8
    ~refquads:[ (0, "f", 0) ] ();
  Minic.Masm.add_common m ~name:"blk" ~size_bytes:48;
  Minic.Masm.assemble m

let test_validate_ok () =
  match O.Cunit.validate (sample_unit ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected valid unit: %s" m

let test_symbols () =
  let u = sample_unit () in
  Alcotest.(check bool) "finds f" true (Option.is_some (O.Cunit.find_symbol u "f"));
  Alcotest.(check bool) "f is a proc" true
    (O.Symbol.is_proc (Option.get (O.Cunit.find_symbol u "f")));
  Alcotest.(check (list string)) "defined" [ "f"; "g"; "ptr"; "blk" ]
    (O.Cunit.defined_symbols u);
  Alcotest.(check (list string)) "undefined" [] (O.Cunit.undefined_symbols u)

let test_undefined_detection () =
  let m = Minic.Masm.create "u.o" in
  let gl = Minic.Masm.fresh_id m in
  Minic.Masm.add_proc m ~name:"f"
    [ Minic.Masm.Gatload { id = gl; ra = R.t0; entry = O.Gat_entry.addr "missing" };
      Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }) ];
  let u = Minic.Masm.assemble m in
  Alcotest.(check (list string)) "missing is undefined" [ "missing" ]
    (O.Cunit.undefined_symbols u)

let test_insn_roundtrip () =
  let u = sample_unit () in
  Alcotest.(check int) "insn count" 5 (O.Cunit.insn_count u);
  Alcotest.(check int) "decoded length" 5 (Array.length (O.Cunit.insns u))

let test_validate_rejects () =
  let u = sample_unit () in
  let bad_literal =
    { u with
      O.Cunit.relocs =
        O.Reloc.v ~section:O.Section.Text ~offset:20
          (O.Reloc.Literal { gat_index = 99 })
        :: u.O.Cunit.relocs }
  in
  Alcotest.(check bool) "bad GAT index rejected" true
    (Result.is_error (O.Cunit.validate bad_literal));
  let bad_offset =
    { u with
      O.Cunit.relocs =
        [ O.Reloc.v ~section:O.Section.Text ~offset:4096
            (O.Reloc.Literal { gat_index = 0 }) ] }
  in
  Alcotest.(check bool) "out-of-range reloc rejected" true
    (Result.is_error (O.Cunit.validate bad_offset));
  let bad_refquad =
    { u with
      O.Cunit.relocs =
        [ O.Reloc.v ~section:O.Section.Data ~offset:4
            (O.Reloc.Refquad { symbol = "f"; addend = 0 }) ] }
  in
  Alcotest.(check bool) "misaligned refquad rejected" true
    (Result.is_error (O.Cunit.validate bad_refquad))

let test_io_roundtrip () =
  let u = sample_unit () in
  match O.Obj_io.read (O.Obj_io.write u) with
  | Ok u' ->
      Alcotest.(check string) "name" u.O.Cunit.name u'.O.Cunit.name;
      Alcotest.(check bool) "text" true (Bytes.equal u.O.Cunit.text u'.O.Cunit.text);
      Alcotest.(check bool) "data" true (Bytes.equal u.O.Cunit.data u'.O.Cunit.data);
      Alcotest.(check int) "gat" (Array.length u.O.Cunit.gat)
        (Array.length u'.O.Cunit.gat);
      Alcotest.(check bool) "symbols" true (u.O.Cunit.symbols = u'.O.Cunit.symbols);
      Alcotest.(check bool) "relocs" true (u.O.Cunit.relocs = u'.O.Cunit.relocs)
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

let test_io_rejects_garbage () =
  Alcotest.(check bool) "empty input" true
    (Result.is_error (O.Obj_io.read Bytes.empty));
  Alcotest.(check bool) "bad magic" true
    (Result.is_error (O.Obj_io.read (Bytes.of_string "XXXXGARBAGE")));
  let good = O.Obj_io.write (sample_unit ()) in
  let truncated = Bytes.sub good 0 (Bytes.length good - 3) in
  Alcotest.(check bool) "truncated input" true
    (Result.is_error (O.Obj_io.read truncated));
  let extended = Bytes.cat good (Bytes.of_string "xx") in
  Alcotest.(check bool) "trailing garbage" true
    (Result.is_error (O.Obj_io.read extended))

let prop_io_random_corruption =
  QCheck.Test.make ~name:"corrupted object files never crash the reader"
    ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, byte) ->
      let good = O.Obj_io.write (sample_unit ()) in
      let pos = pos_seed mod Bytes.length good in
      Bytes.set good pos (Char.chr (byte land 0xff));
      match O.Obj_io.read good with Ok _ | Error _ -> true)

let test_archive_select () =
  let mk name ~defines ~refs =
    let m = Minic.Masm.create name in
    let items =
      List.map
        (fun r ->
          let gl = Minic.Masm.fresh_id m in
          Minic.Masm.Gatload { id = gl; ra = R.t0; entry = O.Gat_entry.addr r })
        refs
      @ [ Minic.Masm.Insn (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 }) ]
    in
    Minic.Masm.add_proc m ~name:defines items;
    Minic.Masm.assemble m
  in
  let a = mk "a.o" ~defines:"fa" ~refs:[ "fb" ] in
  let b = mk "b.o" ~defines:"fb" ~refs:[] in
  let c = mk "c.o" ~defines:"fc" ~refs:[] in
  let archive = O.Archive.make ~name:"lib.a" [ a; b; c ] in
  let picked = O.Archive.select archive ~undefined:[ "fa" ] in
  Alcotest.(check (list string)) "pulls a and b transitively" [ "a.o"; "b.o" ]
    (List.map (fun (u : O.Cunit.t) -> u.name) picked);
  let none = O.Archive.select archive ~undefined:[ "zzz" ] in
  Alcotest.(check int) "nothing resolves zzz" 0 (List.length none)

let test_archive_io () =
  let archive =
    O.Archive.make ~name:"lib.a" [ sample_unit (); sample_unit () ]
  in
  match O.Obj_io.read_archive (O.Obj_io.write_archive archive) with
  | Ok a ->
      Alcotest.(check string) "name" "lib.a" a.O.Archive.name;
      Alcotest.(check int) "members" 2 (List.length a.O.Archive.members)
  | Error m -> Alcotest.failf "archive roundtrip failed: %s" m

let test_masm_rejects () =
  Alcotest.check_raises "dangling label"
    (Invalid_argument "undefined label 0") (fun () ->
      let m = Minic.Masm.create "bad.o" in
      let l = Minic.Masm.fresh_label m in
      Minic.Masm.add_proc m ~name:"f"
        [ Minic.Masm.Branch { insn = I.Br { ra = R.zero; disp = 0 }; target = l } ];
      ignore (Minic.Masm.assemble m));
  Alcotest.check_raises "initializer in bss"
    (Invalid_argument "Masm.add_global: initializer in a zero section")
    (fun () ->
      let m = Minic.Masm.create "bad.o" in
      Minic.Masm.add_global m ~name:"x" ~section:`Bss ~size_bytes:8
        ~init:[| 1L |] ())

(* a 6-byte text: [validate] reports it and [insns] raises its documented
   error naming the unit, not the decoder's length check *)
let test_truncated_text () =
  let u = sample_unit () in
  let u = { u with O.Cunit.text = Bytes.sub u.O.Cunit.text 0 6 } in
  (match O.Cunit.validate u with
  | Ok () -> Alcotest.fail "validate accepted a truncated text"
  | Error m ->
      Alcotest.(check bool) "validate names the length" true
        (Astring.String.is_infix ~affix:"length 6 is not a multiple of 4" m));
  match O.Cunit.insns u with
  | _ -> Alcotest.fail "insns decoded a truncated text"
  | exception Invalid_argument m ->
      Alcotest.(check string) "insns names the unit and the length"
        "Cunit.insns: undecodable text in sample.o: length 6 is not a \
         multiple of 4"
        m

let suite =
  ( "objfile",
    [ Alcotest.test_case "sample unit validates" `Quick test_validate_ok;
      Alcotest.test_case "symbol queries" `Quick test_symbols;
      Alcotest.test_case "undefined detection" `Quick test_undefined_detection;
      Alcotest.test_case "text decodes" `Quick test_insn_roundtrip;
      Alcotest.test_case "validation rejects bad relocs" `Quick
        test_validate_rejects;
      Alcotest.test_case "binary io roundtrip" `Quick test_io_roundtrip;
      Alcotest.test_case "reader rejects garbage" `Quick test_io_rejects_garbage;
      Alcotest.test_case "archive selection" `Quick test_archive_select;
      Alcotest.test_case "archive io" `Quick test_archive_io;
      Alcotest.test_case "masm rejects bad input" `Quick test_masm_rejects;
      Testutil.qtest prop_io_random_corruption;
      Alcotest.test_case "truncated text is named, not a raw raise" `Quick
        test_truncated_text ] )
