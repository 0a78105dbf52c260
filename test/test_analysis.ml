(* Om.Analysis on hand-built procedures, and the register-mask forms of
   the symbolic instructions it consumes. *)

module S = Om.Symbolic
module I = Isa.Insn
module R = Isa.Reg

let mask_of_regs regs = List.fold_left (fun m r -> m lor I.reg_bit r) 0 regs

(* every sinsn shape, with zero-register operands where a form has one *)
let sinsn_samples =
  let t = Linker.Resolve.Tobj 0 in
  let raws =
    [ I.Lda { ra = R.t0; rb = R.sp; disp = 8 };
      I.Lda { ra = R.zero; rb = R.zero; disp = 0 };
      I.Ldq { ra = R.a0; rb = R.gp; disp = -16 };
      I.Stq { ra = R.t1; rb = R.sp; disp = 0 };
      I.Stq { ra = R.zero; rb = R.t4; disp = 0 };
      I.Jump { kind = I.Jsr; ra = R.ra; rb = R.pv; hint = 0 };
      I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 0 };
      I.Op { op = I.Addq; ra = R.t0; rb = I.Rb R.t1; rc = R.t2 };
      I.Op { op = I.Subq; ra = R.t3; rb = I.Imm 5; rc = R.zero };
      I.Call_pal 0x83;
      I.nop ]
  in
  let branches =
    [ I.Br { ra = R.zero; disp = 0 };
      I.Br { ra = R.t5; disp = 0 };
      I.Bsr { ra = R.ra; disp = 0 };
      I.Bcond { cond = I.Bne; ra = R.t2; disp = 0 };
      I.Bcond { cond = I.Beq; ra = R.zero; disp = 0 } ]
  in
  let gprel_templates =
    [ I.Ldq { ra = R.t0; rb = R.t1; disp = 0 };
      I.Stq { ra = R.t2; rb = R.t1; disp = 0 };
      I.Stq { ra = R.zero; rb = R.t1; disp = 0 };
      I.Lda { ra = R.t3; rb = R.t1; disp = 0 };
      I.Ldah { ra = R.t3; rb = R.gp; disp = 0 } ]
  in
  let plain =
    List.map (fun i -> S.Raw i) raws
    @ List.map (fun insn -> S.Use { insn; load_id = 0; jsr = false }) raws
    @ List.map (fun insn -> S.Branch { insn; target = 0 }) branches
    @ List.concat_map
        (fun insn ->
          List.map
            (fun part -> S.Gprel { insn; target = t; addend = 8; part })
            [ S.Pfull; S.Phi; S.Plo 0; S.Plo 12 ])
        gprel_templates
    @ List.concat_map
        (fun ra ->
          [ S.Gatload { ra; key = S.Pconst 1L };
            S.Gatload_wide { ra; key = S.Paddr (t, 0) };
            S.Lea_wide { ra; target = t; addend = 0 };
            S.Bsr_far { ra; target = 0 };
            S.Br_far { ra; target = 0 };
            S.Bcond_far { cond = I.Blt; ra; target = 0 } ])
        [ R.t0; R.ra; R.zero ]
    @ [ S.Gpsetup_hi { base = R.pv; anchor = S.Aentry; lo_id = 1 };
        S.Gpsetup_hi { base = R.ra; anchor = S.Alocal 3; lo_id = 1 };
        S.Gpsetup_lo ]
  in
  plain @ List.map (fun i -> S.Elided i) plain

let test_sinsn_masks () =
  List.iteri
    (fun k si ->
      Alcotest.(check int) (Printf.sprintf "defs mask of sample %d" k)
        (mask_of_regs (S.defs si)) (S.defs_mask si);
      Alcotest.(check int) (Printf.sprintf "uses mask of sample %d" k)
        (mask_of_regs (S.uses si)) (S.uses_mask si))
    sinsn_samples

(* A loop with a back edge, entered through a join at its header:

     n0       lda  t0, 0(zero)
     n1       ldq  t1, lit(gp)          ; address load A
     n2       ldq  t4, lit(gp)          ; address load B
     n3       ldq  t2, 0(t1)            ; !lituse A
     n4 Ltop: addq t0, 1, t0            ; join: fall-in + back edge
     n5       cmplt t0, 10, t3
     n6       bne  t3, Ltop             ; back edge
     n7       addq t2, t4, v0           ; !lituse B
     n8       ret

   A's register is dead at the join, B's is live across the loop. *)
let loop_program () =
  let world =
    match
      Linker.Resolve.run
        [ Testutil.compile
            "func helper() { return 1; } func main() { return helper(); }" ]
        ~archives:[ Runtime.libstd () ]
    with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  let program =
    match Om.Lift.run world with
    | Ok p -> p
    | Error m -> Alcotest.failf "lift: %s" m
  in
  let pi =
    let rec go i =
      if String.equal program.S.procs.(i).S.sp_name "helper" then i
      else go (i + 1)
    in
    go 0
  in
  let proc = program.S.procs.(pi) in
  let mk insn = S.make_node program insn in
  let top = S.fresh_label program in
  let n0 = mk (S.Raw (I.Lda { ra = R.t0; rb = R.zero; disp = 0 })) in
  let n1 = mk (S.Gatload { ra = R.t1; key = S.Pconst 1L }) in
  let n2 = mk (S.Gatload { ra = R.t4; key = S.Pconst 2L }) in
  let n3 =
    mk (S.Use { insn = I.Ldq { ra = R.t2; rb = R.t1; disp = 0 };
                load_id = n1.S.nid; jsr = false })
  in
  let n4 = mk (S.Raw (I.Op { op = I.Addq; ra = R.t0; rb = I.Imm 1; rc = R.t0 })) in
  let n5 = mk (S.Raw (I.Op { op = I.Cmplt; ra = R.t0; rb = I.Imm 10; rc = R.t3 })) in
  let n6 =
    mk (S.Branch { insn = I.Bcond { cond = I.Bne; ra = R.t3; disp = 0 };
                   target = top })
  in
  let n7 =
    mk (S.Use { insn = I.Op { op = I.Addq; ra = R.t2; rb = I.Rb R.t4; rc = R.v0 };
                load_id = n2.S.nid; jsr = false })
  in
  let n8 = mk (S.Raw (I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 0 })) in
  n0.S.labels <- [ proc.S.entry_label ];
  n4.S.labels <- [ top ];
  proc.S.body <- [ n0; n1; n2; n3; n4; n5; n6; n7; n8 ];
  (program, pi, [| n0; n1; n2; n3; n4; n5; n6; n7; n8 |])

let test_loop_liveness () =
  let program, _, n = loop_program () in
  let als = Om.Analysis.run program in
  let exit = mask_of_regs R.[ v0; sp; gp; s0; s1; s2; s3; s4; s5; fp ] in
  let m = mask_of_regs in
  let no_v0 = exit land lnot (m [ R.v0 ]) in
  (* live at the loop: the exit set less v0 (n7 defines it), ra for the
     ret, t0 for the counter, and both values n7 reads *)
  let loop = no_v0 lor m R.[ ra; t0; t2; t4 ] in
  let expected =
    [| no_v0 lor m R.[ ra; t0 ];
       no_v0 lor m R.[ ra; t0; t1 ];
       no_v0 lor m R.[ ra; t0; t1; t4 ];
       loop;
       loop;
       loop lor m [ R.t3 ];
       loop;
       exit lor m [ R.ra ];
       exit |]
  in
  Array.iteri
    (fun k (nd : S.node) ->
      Alcotest.(check int)
        (Printf.sprintf "live out of n%d" k)
        expected.(k)
        als.Om.Analysis.live_out.(nd.S.nid))
    n

let status =
  Alcotest.testable
    (fun ppf -> function
      | Some Om.Analysis.Escapes -> Format.fprintf ppf "Escapes"
      | Some (Om.Analysis.All_marked us) ->
          Format.fprintf ppf "All_marked [%s]"
            (String.concat "; "
               (List.map (fun (u : S.node) -> string_of_int u.S.nid) us))
      | None -> Format.fprintf ppf "None")
    (fun a b ->
      match (a, b) with
      | Some Om.Analysis.Escapes, Some Om.Analysis.Escapes | None, None -> true
      | Some (Om.Analysis.All_marked xs), Some (Om.Analysis.All_marked ys) ->
          List.equal ( == ) xs ys
      | _ -> false)

let test_use_chains_at_join () =
  let chains ~local_only =
    let program, _, n = loop_program () in
    let als = Om.Analysis.run ~local_only program in
    (n, fun k -> als.Om.Analysis.gatload_status.(n.(k).S.nid))
  in
  (* CFG liveness sees A's register die before the join *)
  let n, st = chains ~local_only:false in
  Alcotest.check status "A folds across the join"
    (Some (Om.Analysis.All_marked [ n.(3) ])) (st 1);
  Alcotest.check status "B is live across the join" (Some Om.Analysis.Escapes)
    (st 2);
  Alcotest.check status "not a load" None (st 3);
  (* a traditional linker gives up at the join *)
  let _, st = chains ~local_only:true in
  Alcotest.check status "A escapes locally" (Some Om.Analysis.Escapes) (st 1);
  Alcotest.check status "B escapes locally" (Some Om.Analysis.Escapes) (st 2)

let test_indexed_lookup () =
  let program, pi, n = loop_program () in
  let als = Om.Analysis.run program in
  let ix = als.Om.Analysis.index in
  Alcotest.(check bool) "own node found" true
    (match Om.Analysis.find_node ix ~proc:pi n.(5).S.nid with
    | Some nd -> nd == n.(5)
    | None -> false);
  let other = if pi = 0 then 1 else 0 in
  let foreign = List.hd program.S.procs.(other).S.body in
  Alcotest.(check bool) "another procedure's node is not found" true
    (Option.is_none (Om.Analysis.find_node ix ~proc:pi foreign.S.nid));
  Alcotest.(check bool) "found in its own procedure" true
    (Option.is_some (Om.Analysis.find_node ix ~proc:other foreign.S.nid));
  Alcotest.(check bool) "unknown id" true
    (Option.is_none
       (Om.Analysis.find_node ix ~proc:pi program.S.next_node));
  Alcotest.(check bool) "label home" true
    (match Om.Analysis.label_home ix program.S.procs.(pi).S.entry_label with
    | Some (p, nd) -> p = pi && nd == n.(0)
    | None -> false)

let suite =
  ( "analysis",
    [ Alcotest.test_case "sinsn masks match lists" `Quick test_sinsn_masks;
      Alcotest.test_case "live-out across a loop" `Quick test_loop_liveness;
      Alcotest.test_case "use chains at a join" `Quick test_use_chains_at_join;
      Alcotest.test_case "indexed node lookup" `Quick test_indexed_lookup ] )
