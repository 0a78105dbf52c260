module S = Om.Symbolic
module I = Isa.Insn
module R = Isa.Reg

let world_of ?(extra = []) src =
  let units = Testutil.compile src :: extra in
  match Linker.Resolve.run units ~archives:[ Runtime.libstd () ] with
  | Ok w -> w
  | Error m -> Alcotest.failf "resolve: %s" m

let lift world =
  match Om.Lift.run world with
  | Ok p -> p
  | Error m -> Alcotest.failf "lift: %s" m

let om_level level world =
  match Om.optimize_resolved level world with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" (Om.level_name level) m

let find_proc (p : S.program) name =
  match
    Array.to_seq p.S.procs
    |> Seq.find (fun (pr : S.proc) -> String.equal pr.sp_name name)
  with
  | Some pr -> pr
  | None -> Alcotest.failf "no procedure %s in symbolic program" name

(* --- lift --- *)

let test_lift_classifies () =
  let world =
    world_of {|var g = 1;
               func main() { g = g + 2; io_putint(g); return 0; }|}
  in
  let program = lift world in
  let main = find_proc program "main" in
  let count pred = List.length (List.filter pred main.S.body) in
  Alcotest.(check bool) "has address loads" true
    (count (fun n -> match n.S.insn with S.Gatload _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "has lituse links" true
    (count (fun n -> match n.S.insn with S.Use _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "has gp setup" true
    (count (fun n -> match n.S.insn with S.Gpsetup_hi _ -> true | _ -> false) > 0);
  (* instruction count matches the object code *)
  let u = world.Linker.Resolve.modules.(0) in
  let p = Option.get (Objfile.Cunit.find_symbol u "main") in
  let size =
    match p.Objfile.Symbol.def with
    | Objfile.Symbol.Proc { size; _ } -> size
    | _ -> 0
  in
  Alcotest.(check int) "node count = insn count" (size / 4)
    (List.length main.S.body)

let test_noopt_behavior_preserved () =
  (* lift + lower with no transformation behaves like the standard link *)
  let src = {|
var xs[50];
static func fill(n) {
  var i = 0;
  while (i < n) { xs[i] = i * i % 97; i = i + 1; }
  return 0;
}
func main() {
  fill(50);
  sort_quads(&xs, 50);
  io_putint(xs[0]); io_putchar(32); io_putint(xs[49]);
  return 0;
}
|} in
  ignore (Testutil.run_all_levels src)

(* --- analysis --- *)

let test_callsite_discovery () =
  let world =
    world_of
      {|func leaf(x) { return x + 1; }
        var fp = 0;
        func main() {
          fp = &leaf;
          io_putint(leaf(1) + fp(2));
          return 0; }|}
  in
  let program = lift world in
  let als = Om.Analysis.run program in
  let in_main =
    List.filter
      (fun (cs : Om.Analysis.callsite) ->
        program.S.procs.(cs.cs_proc).S.sp_name = "main")
      als.Om.Analysis.callsites
  in
  let direct =
    List.exists
      (fun (cs : Om.Analysis.callsite) ->
        match cs.cs_kind with
        | Om.Analysis.Direct { callee; _ } ->
            world.Linker.Resolve.procs.(callee).p_name = "leaf"
        | _ -> false)
      in_main
  in
  let indirect =
    List.exists
      (fun (cs : Om.Analysis.callsite) -> cs.cs_kind = Om.Analysis.Indirect)
      in_main
  in
  Alcotest.(check bool) "finds the direct call" true direct;
  Alcotest.(check bool) "finds the indirect call" true indirect

let test_address_taken () =
  let world =
    world_of
      {|func plain(x) { return x; }
        func pointed(x) { return x + 1; }
        var fp = 0;
        func main() {
          fp = &pointed;
          io_putint(plain(1) + fp(1));
          return 0; }|}
  in
  let program = lift world in
  let als = Om.Analysis.run program in
  let idx name = Option.get (Linker.Resolve.proc_index_by_name world name) in
  Alcotest.(check bool) "pointed is address-taken" true
    als.Om.Analysis.address_taken.(idx "pointed");
  Alcotest.(check bool) "plain is not" false
    als.Om.Analysis.address_taken.(idx "plain")

(* --- transformations --- *)

let test_move_setups () =
  let world =
    world_of {|var g = 1;
               func main() { io_putint(g); return 0; }|}
  in
  let program = lift world in
  let main = find_proc program "main" in
  (* compile-time scheduling usually displaces the pair *)
  Om.Transform.move_setups_to_entry program;
  Alcotest.(check bool) "setup at entry after motion" true
    (Option.is_some (Om.Transform.setup_at_entry main))

let stats_of level world = (om_level level world).Om.stats

let test_simple_nullifies_not_deletes () =
  let world =
    world_of {|var a = 1; var b = 2;
               func main() { io_putint(a + b); return 0; }|}
  in
  let s = stats_of Om.Simple world in
  Alcotest.(check int) "no deletions in OM-simple" 0 s.Om.Stats.insns_deleted;
  Alcotest.(check bool) "some nullifications" true (s.Om.Stats.nops_added > 0);
  Alcotest.(check int) "static size unchanged" s.Om.Stats.insns_before
    s.Om.Stats.insns_after

let test_full_deletes () =
  let world =
    world_of {|var a = 1; var b = 2;
               func main() { io_putint(a + b); return 0; }|}
  in
  let s = stats_of Om.Full world in
  Alcotest.(check int) "no no-ops in OM-full" 0 s.Om.Stats.nops_added;
  Alcotest.(check bool) "deletions happen" true (s.Om.Stats.insns_deleted > 0);
  Alcotest.(check bool) "program shrinks" true
    (s.Om.Stats.insns_after < s.Om.Stats.insns_before)

let test_full_removes_more_pv_loads () =
  let src = {|
func a(x) { return x + 1; }
func b(x) { return a(x) + 2; }
func c(x) { return b(x) + 3; }
func main() { io_putint(c(1) + b(2) + a(3)); return 0; }
|} in
  let world = world_of src in
  let simple = stats_of Om.Simple world in
  let full = stats_of Om.Full world in
  Alcotest.(check bool) "jsr all but gone under both" true
    (simple.Om.Stats.jsr_after <= simple.Om.Stats.jsr_before
    && full.Om.Stats.jsr_after <= 1);
  Alcotest.(check bool) "full keeps fewer pv loads than simple" true
    (full.Om.Stats.calls_pv_after <= simple.Om.Stats.calls_pv_after);
  Alcotest.(check bool) "full deletes gp setups" true
    (full.Om.Stats.gp_setups_deleted > 0)

let test_indirect_calls_keep_bookkeeping () =
  let src = {|
func target(x) { return x * 2; }
var fp = 0;
func main() {
  fp = &target;
  io_putint(fp(21));
  return 0;
}
|} in
  let world = world_of src in
  let full = stats_of Om.Full world in
  (* the call through fp cannot lose its PV load or its GP reset *)
  Alcotest.(check bool) "pv loads remain" true
    (full.Om.Stats.calls_pv_after >= 1);
  Alcotest.(check bool) "resets remain" true
    (full.Om.Stats.calls_reset_after >= 1)

let test_gat_reduction () =
  let src = {|
var a = 1; var b = 2; var c = 3; var d = 4;
func main() {
  io_putint(a + b + c + d + 0x123456789ABCDEF);
  return 0;
}
|} in
  let world = world_of src in
  let full = stats_of Om.Full world in
  Alcotest.(check bool) "GAT shrinks a lot" true
    (full.Om.Stats.gat_bytes_after * 2 < full.Om.Stats.gat_bytes_before);
  (* the 64-bit literal still needs its pool slot *)
  Alcotest.(check bool) "pool is not empty" true
    (full.Om.Stats.gat_bytes_after >= 8)

let test_far_data_lea_wide () =
  (* data too large for the GP window: OM-full must use ldah/lda pairs
     and the program must still work at every level *)
  let src = {|
var big1[9000];
var big2[9000];
func main() {
  big1[8999] = 7;
  big2[8999] = 35;
  io_putint(big1[8999] + big2[8999]);
  return 0;
}
|} in
  let out = Testutil.run_all_levels src in
  Alcotest.(check string) "far-data program output" "42" out

let test_addr_accounting () =
  let world =
    world_of {|var a = 1;
               func main() { io_putint(a); return 0; }|}
  in
  List.iter
    (fun level ->
      let s = stats_of level world in
      Alcotest.(check bool)
        (Om.level_name level ^ ": converted+nullified <= total")
        true
        (s.Om.Stats.addr_converted + s.Om.Stats.addr_nullified
         <= s.Om.Stats.addr_loads);
      Alcotest.(check bool)
        (Om.level_name level ^ ": pv after <= calls")
        true
        (s.Om.Stats.calls_pv_after <= s.Om.Stats.calls))
    [ Om.Simple; Om.Full ]

let test_full_sched_alignment () =
  (* quadword alignment never breaks behavior; loop targets get aligned *)
  let src = {|
var acc = 0;
func main() {
  var i = 0;
  while (i < 100) { acc = acc + i; i = i + 1; }
  io_putint(acc);
  return 0;
}
|} in
  let world = world_of src in
  let { Om.image; _ } = om_level Om.Full_sched world in
  let out = (Testutil.run_image image).Machine.Cpu.output in
  Alcotest.(check string) "aligned program output" "4950" out

(* --- behavior preservation properties --- *)

(* a tiny generator of random minic programs *)
let gen_program =
  let open QCheck.Gen in
  let var i = Printf.sprintf "g%d" i in
  let* nglobals = int_range 1 4 in
  let* stmts =
    list_size (int_range 1 8)
      (let* v = int_range 0 (nglobals - 1) in
       let* w = int_range 0 (nglobals - 1) in
       let* c = int_range 0 200 in
       oneofl
         [ Printf.sprintf "%s = %s + %d;" (var v) (var w) c;
           Printf.sprintf "%s = %s * 3 - %d;" (var v) (var w) c;
           Printf.sprintf "if (%s > %d) { %s = %s - %d; }" (var v) c (var w)
             (var w) c;
           Printf.sprintf
             "{ var i = 0; while (i < %d) { %s = %s + i; i = i + 1; } }"
             (c mod 17) (var v) (var v) ]
       |> map (fun s ->
              (* minic has no bare blocks: rewrite the loop form *)
              if String.length s > 0 && s.[0] = '{' then
                Printf.sprintf
                  "ctr = 0; while (ctr < %d) { %s = %s + ctr; ctr = ctr + 1; }"
                  (c mod 17) (var v) (var v)
              else s))
  in
  let globals =
    String.concat "\n"
      (List.init nglobals (fun i -> Printf.sprintf "var g%d = %d;" i (i + 1)))
  in
  let body = String.concat "\n  " stmts in
  let prints =
    String.concat " "
      (List.init nglobals (fun i ->
           Printf.sprintf "io_putint(g%d); io_putchar(32);" i))
  in
  return
    (Printf.sprintf
       "%s\nfunc main() {\n  var ctr = 0;\n  %s\n  %s\n  return ctr * 0;\n}"
       globals body prints)

let prop_all_levels_agree =
  QCheck.Test.make ~name:"every OM level preserves program behavior" ~count:30
    (QCheck.make ~print:Fun.id gen_program)
    (fun src ->
      match Testutil.run_all_levels src with
      | _ -> true
      | exception Alcotest.Test_error -> false)

let suite =
  ( "om",
    [ Alcotest.test_case "lift classifies instructions" `Quick
        test_lift_classifies;
      Alcotest.test_case "no-opt preserves behavior" `Quick
        test_noopt_behavior_preserved;
      Alcotest.test_case "call-site discovery" `Quick test_callsite_discovery;
      Alcotest.test_case "address-taken analysis" `Quick test_address_taken;
      Alcotest.test_case "setup motion" `Quick test_move_setups;
      Alcotest.test_case "simple nullifies, never deletes" `Quick
        test_simple_nullifies_not_deletes;
      Alcotest.test_case "full deletes" `Quick test_full_deletes;
      Alcotest.test_case "full beats simple on calls" `Quick
        test_full_removes_more_pv_loads;
      Alcotest.test_case "indirect calls stay conservative" `Quick
        test_indirect_calls_keep_bookkeeping;
      Alcotest.test_case "GAT reduction" `Quick test_gat_reduction;
      Alcotest.test_case "far data via ldah/lda" `Quick test_far_data_lea_wide;
      Alcotest.test_case "stat accounting invariants" `Quick
        test_addr_accounting;
      Alcotest.test_case "alignment variant" `Quick test_full_sched_alignment;
      Testutil.qtest prop_all_levels_agree ] )

(* --- independent image verification --- *)

let test_verify_all_levels () =
  let src = {|
var a = 1; var b = 2; var big[3000];
func helper(x) { a = a + x; return a * b; }
func main() {
  var i = 0;
  while (i < 20) { big[i] = helper(i); i = i + 1; }
  io_putint(big[19]);
  return 0;
}
|} in
  let world = world_of src in
  let std = Result.get_ok (Linker.Link.link_resolved world) in
  (match Om.Verify.check std with
  | Ok () -> ()
  | Error m -> Alcotest.failf "standard image fails verification: %s" m);
  List.iter
    (fun level ->
      let { Om.image; _ } = om_level level world in
      match Om.Verify.check image with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s image fails verification: %s"
            (Om.level_name level) m)
    Om.all_levels

let test_verify_catches_corruption () =
  let world = world_of {|func main() { io_putint(isqrt(81)); return 0; }|} in
  let { Om.image; _ } = om_level Om.Full world in
  (* smash a branch displacement to point into another procedure's body *)
  let insns = Linker.Image.insns image in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      if !victim = None then
        match i with
        | Isa.Insn.Bsr { ra; _ } ->
            victim := Some (k, Isa.Insn.Bsr { ra; disp = 3000 })
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no bsr found to corrupt"
  | Some (k, bad) ->
      let text = Bytes.copy image.Linker.Image.text in
      Bytes.set_int32_le text (4 * k) (Int32.of_int (Isa.Encode.insn bad));
      let corrupted = { image with Linker.Image.text } in
      Alcotest.(check bool) "verifier flags the corruption" true
        (Result.is_error (Om.Verify.check corrupted))

(* the remaining corruption tests share one patched-image helper *)
let patch_insn (image : Linker.Image.t) k insn =
  let text = Bytes.copy image.Linker.Image.text in
  Bytes.set_int32_le text (4 * k) (Int32.of_int (Isa.Encode.insn insn));
  { image with Linker.Image.text }

let str_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let expect_issue what substr image =
  match Om.Verify.check image with
  | Ok () -> Alcotest.failf "%s: verifier passed the corrupted image" what
  | Error m ->
      if not (str_contains m substr) then
        Alcotest.failf "%s: flagged, but not for the planted reason: %s" what m

let corruption_src = {|
var acc = 0;
func helper(x) {
  var i = 0;
  while (i < 8) { acc = acc + x * i; i = i + 1; }
  return acc;
}
func main() { io_putint(helper(7)); return 0; }
|}

(* retarget a call so it lands inside helper's body, past the entry and
   its GP-setup pair — the "branch into mid-procedure" class *)
let test_verify_catches_branch_into_body () =
  let world = world_of corruption_src in
  let { Om.image; _ } = om_level Om.Full world in
  let insns = Linker.Image.insns image in
  let helper =
    match Linker.Image.find_proc image "helper" with
    | Some q -> q
    | None -> Alcotest.fail "no helper procedure in image"
  in
  (* first non-nop strictly past the legitimate entry points; branching
     just after it cannot be excused as nop-skipping *)
  let target =
    let rec find a =
      if a + 4 >= helper.Linker.Image.entry + helper.Linker.Image.size then
        Alcotest.fail "helper too small to corrupt"
      else if I.is_nop insns.((a - image.Linker.Image.text_base) / 4) then
        find (a + 4)
      else a + 4
    in
    find (helper.Linker.Image.entry + 8)
  in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      let addr = image.Linker.Image.text_base + (4 * k) in
      let in_helper =
        match Linker.Image.proc_containing image addr with
        | Some p -> String.equal p.Linker.Image.name "helper"
        | None -> false
      in
      if !victim = None && not in_helper then
        let disp = (target - addr - 4) / 4 in
        match i with
        | I.Bsr { ra; _ } when disp >= -1048576 && disp < 1048576 ->
            victim := Some (k, I.Bsr { ra; disp })
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no bsr outside helper to corrupt"
  | Some (k, bad) ->
      expect_issue "branch into body" "branch into the middle of helper"
        (patch_insn image k bad)

(* bend a GP-relative load's displacement until its effective address
   leaves the data region *)
let test_verify_catches_gp_load_outside_data () =
  let world = world_of corruption_src in
  let image = Result.get_ok (Linker.Link.link_resolved world) in
  let insns = Linker.Image.insns image in
  let data_end =
    image.Linker.Image.data_base + Bytes.length image.Linker.Image.data
  in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      let addr = image.Linker.Image.text_base + (4 * k) in
      if !victim = None then
        match (i, Linker.Image.proc_containing image addr) with
        | I.Ldq { ra; rb; _ }, Some p when R.equal rb R.gp ->
            let gp = p.Linker.Image.gp_value in
            let candidates =
              [ data_end - gp + 8; image.Linker.Image.data_base - gp - 16 ]
            in
            List.iter
              (fun disp ->
                if !victim = None && disp >= -32768 && disp <= 32767 then
                  victim := Some (k, I.Ldq { ra; rb; disp }))
              candidates
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no patchable gp-relative ldq found"
  | Some (k, bad) ->
      expect_issue "gp load" "outside data" (patch_insn image k bad)

(* skew the low half of a prologue's GPDISP pair: the recomputed GP no
   longer matches the procedure descriptor *)
let test_verify_catches_broken_gpdisp () =
  let world = world_of corruption_src in
  let image = Result.get_ok (Linker.Link.link_resolved world) in
  let insns = Linker.Image.insns image in
  let victim = ref None in
  Array.iteri
    (fun k i ->
      if !victim = None then
        match i with
        | I.Ldah { ra; rb; _ } when R.equal ra R.gp && R.equal rb R.pv ->
            let rec find_lo j =
              if j >= Array.length insns || j > k + 8 then ()
              else
                match insns.(j) with
                | I.Lda { ra; rb; disp }
                  when R.equal ra R.gp && R.equal rb R.gp ->
                    let disp = if disp < 32000 then disp + 8 else disp - 8 in
                    victim := Some (j, I.Lda { ra; rb; disp })
                | _ -> find_lo (j + 1)
            in
            find_lo (k + 1)
        | _ -> ())
    insns;
  match !victim with
  | None -> Alcotest.fail "no GPDISP pair found to corrupt"
  | Some (j, bad) ->
      expect_issue "gpdisp" "GP setup computes" (patch_insn image j bad)

(* Damaged images the verifier and the loader check must report as
   issues, never raise on. *)
let test_verify_damaged_images_total () =
  let world = world_of {|func main() { io_putint(isqrt(81)); return 0; }|} in
  let { Om.image; _ } = om_level Om.Full world in
  let with_proc f =
    let procs = Array.copy image.Linker.Image.procs in
    procs.(0) <- f procs.(0);
    { image with Linker.Image.procs }
  in
  let text = image.Linker.Image.text in
  List.iter
    (fun (what, damaged, verify_says) ->
      (match Om.Verify.check damaged with
      | Ok () -> Alcotest.failf "%s: verifier passed it" what
      | Error m ->
          if not (str_contains m verify_says) then
            Alcotest.failf "%s: flagged for another reason: %s" what m
      | exception e ->
          Alcotest.failf "%s: verifier raised %s" what (Printexc.to_string e));
      match Linker.Image.validate damaged with
      | Ok () -> Alcotest.failf "%s: validate passed it" what
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "%s: validate raised %s" what (Printexc.to_string e))
    [ ( "text truncated by one byte",
        { image with
          Linker.Image.text = Bytes.sub text 0 (Bytes.length text - 1) },
        "not a multiple of 4" );
      ( "descriptor runs past text",
        with_proc (fun p ->
            { p with
              Linker.Image.size =
                image.Linker.Image.text_base + Bytes.length text - p.entry + 8 }),
        "inside text" );
      ( "descriptor entry below text",
        with_proc (fun p -> { p with Linker.Image.entry = image.text_base - 64 }),
        "inside text" ) ]

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "damaged images are reported, not raised" `Quick
          test_verify_damaged_images_total;
        Alcotest.test_case "verifier passes all levels" `Quick
          test_verify_all_levels;
        Alcotest.test_case "verifier catches corruption" `Quick
          test_verify_catches_corruption;
        Alcotest.test_case "verifier catches branch into a body" `Quick
          test_verify_catches_branch_into_body;
        Alcotest.test_case "verifier catches gp load outside data" `Quick
          test_verify_catches_gp_load_outside_data;
        Alcotest.test_case "verifier catches a broken GPDISP pair" `Quick
          test_verify_catches_broken_gpdisp ] )

(* --- ablation variants preserve behavior --- *)

let test_ablation_preserves_behavior () =
  let src = {|
var total = 0;
func accumulate(x) { total = total + x * x; return total; }
func main() {
  var i = 0;
  while (i < 30) { accumulate(i); i = i + 1; }
  io_putint(total);
  return 0;
}
|} in
  let world = world_of src in
  let std = Result.get_ok (Linker.Link.link_resolved world) in
  let base = (Testutil.run_image std).Machine.Cpu.output in
  let d = Om.Transform.default_options in
  List.iter
    (fun (name, opts) ->
      match Om.optimize_resolved ~transform_options:opts Om.Full world with
      | Ok { Om.image; _ } ->
          Alcotest.(check string) (name ^ " preserves behavior") base
            (Testutil.run_image image).Machine.Cpu.output
      | Error m -> Alcotest.failf "%s: %s" name m)
    [ ("-calls", { d with Om.Transform.opt_calls = false });
      ("-addr", { d with Om.Transform.opt_addr = false });
      ("-setup-motion", { d with Om.Transform.opt_setup_motion = false });
      ("-setup-deletion", { d with Om.Transform.opt_setup_deletion = false });
      ("only-calls",
       { Om.Transform.opt_calls = true;
         opt_addr = false;
         opt_setup_motion = true;
         opt_setup_deletion = false });
      ("nothing",
       { Om.Transform.opt_calls = false;
         opt_addr = false;
         opt_setup_motion = false;
         opt_setup_deletion = false }) ]

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "ablation variants preserve behavior" `Quick
          test_ablation_preserves_behavior ] )

(* --- lift error paths: every refusal is an [Error] naming the module
   and the byte offset, never an exception --- *)

let lift_case_unit () =
  let gp = R.gp in
  Objfile.Cunit.make ~name:"lift_case.o"
    ~gat:[| Objfile.Gat_entry.addr "g" |]
    ~symbols:[ Objfile.Symbol.proc ~name:"f" ~offset:0 ~size:28 () ]
    ~relocs:
      Objfile.Reloc.
        [ v ~section:Objfile.Section.Text ~offset:0
            (Gpdisp { anchor = 0; pair = 4 });
          v ~section:Objfile.Section.Text ~offset:8 (Literal { gat_index = 0 });
          v ~section:Objfile.Section.Text ~offset:12
            (Lituse_base { load_offset = 8 }) ]
    [ I.Ldah { ra = gp; rb = R.pv; disp = 0 };           (* 0x00 *)
      I.Lda { ra = gp; rb = gp; disp = 0 };              (* 0x04 *)
      I.Ldq { ra = R.t0; rb = gp; disp = 0 };            (* 0x08 *)
      I.Ldq { ra = R.v0; rb = R.t0; disp = 0 };          (* 0x0c *)
      I.Bcond { cond = I.Bne; ra = R.v0; disp = 1 };     (* 0x10 *)
      I.Lda { ra = R.v0; rb = R.zero; disp = 1 };        (* 0x14 *)
      I.Jump { kind = I.Ret; ra = R.zero; rb = R.ra; hint = 1 } ]

let test_lift_errors () =
  let base = lift_case_unit () in
  (match Om.Lift.lift_module base with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "well-formed unit refused: %s" m);
  let text_reloc offset kind =
    Objfile.Reloc.v ~section:Objfile.Section.Text ~offset kind
  in
  let add_reloc r = { base with Objfile.Cunit.relocs = base.relocs @ [ r ] } in
  let with_proc ~offset ~size =
    { base with
      Objfile.Cunit.symbols = [ Objfile.Symbol.proc ~name:"f" ~offset ~size () ] }
  in
  let with_word k w =
    let text = Bytes.copy base.Objfile.Cunit.text in
    Bytes.set_int32_le text (4 * k) (Int32.of_int w);
    { base with Objfile.Cunit.text }
  in
  let far_branch =
    Isa.Encode.insn (I.Bcond { cond = I.Bne; ra = R.v0; disp = 100 })
  in
  let back_branch =
    Isa.Encode.insn (I.Bcond { cond = I.Bne; ra = R.v0; disp = -10 })
  in
  let cases =
    [ ("text gap", with_proc ~offset:4 ~size:24, 0x0, "text gap");
      ("short coverage", with_proc ~offset:0 ~size:24, 0x18, "procedures cover");
      ("misaligned procedure",
       { base with
         Objfile.Cunit.symbols =
           [ Objfile.Symbol.proc ~name:"f" ~offset:0 ~size:6 ();
             Objfile.Symbol.proc ~name:"g" ~offset:6 ~size:22 () ] },
       0x6, "procedure g is not instruction-aligned");
      ("branch past the text", with_word 4 far_branch, 0x10, "branch target");
      ("branch before the text", with_word 4 back_branch, 0x10,
       "branch target");
      ("LITERAL not on ldq", add_reloc (text_reloc 0x18 (Literal { gat_index = 0 })),
       0x18, "LITERAL not on an address load");
      ("LITERAL outside the GAT",
       add_reloc (text_reloc 0x14 (Literal { gat_index = 3 })), 0x14,
       "GAT entry 3");
      ("LITUSE on a LITERAL load",
       add_reloc (text_reloc 0x8 (Lituse_base { load_offset = 8 })), 0x8,
       "LITUSE on a non-plain instruction");
      ("LITUSE on a branch",
       add_reloc (text_reloc 0x10 (Lituse_base { load_offset = 8 })), 0x10,
       "LITUSE on a non-plain instruction");
      ("dangling LITUSE",
       add_reloc (text_reloc 0x14 (Lituse_jsr { load_offset = 0x100 })), 0x14,
       "dangling LITUSE");
      ("GPDISP off an ldah/lda pair",
       add_reloc (text_reloc 0x8 (Gpdisp { anchor = 0; pair = 0xc })), 0x8,
       "GPDISP not on an ldah/lda pair");
      ("dangling GPDISP pair",
       add_reloc (text_reloc 0x0 (Gpdisp { anchor = 0; pair = 0x200 })), 0x0,
       "dangling GPDISP pair");
      ("GPDISP anchor outside the text",
       add_reloc (text_reloc 0x0 (Gpdisp { anchor = 0x400; pair = 4 })), 0x0,
       "GPDISP anchor");
      ("REFQUAD in text",
       add_reloc (text_reloc 0x14 (Refquad { symbol = "g"; addend = 0 })), 0x14,
       "REFQUAD in text");
      ("GPREL16 off gp",
       add_reloc (text_reloc 0xc (Gprel16 { symbol = "g"; addend = 0 })), 0xc,
       "GPREL16 not on a gp-based memory op");
      ("relocation between instructions",
       add_reloc (text_reloc 0x6 (Literal { gat_index = 0 })), 0x6,
       "relocation hits no instruction");
      ("undecodable word", with_word 5 0x04000000, 0x14, "undecodable text");
      ("odd-length text",
       { base with Objfile.Cunit.text = Bytes.cat base.text (Bytes.make 2 '\000') },
       0x1c, "not a multiple of 4") ]
  in
  List.iter
    (fun (what, u, off, affix) ->
      match Om.Lift.lift_module u with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error m ->
          let prefix = Printf.sprintf "lift_case.o+%#x:" off in
          if
            not
              (String.starts_with ~prefix m
              && Astring.String.is_infix ~affix m)
          then Alcotest.failf "%s: expected %S ... %S, got %S" what prefix affix m
      | exception e ->
          Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    cases

(* --- the daemon's lift path equals the in-process one ---

   The daemon lifts each module once, stores it marshalled and
   instantiates what it reads back; [Om.Lift.run] lifts and instantiates
   in one go. Both must build the same program on every benchmark and
   build. *)

let test_stored_lift_matches_run () =
  let digest (p : S.program) =
    Digest.to_hex
      (Digest.string (Marshal.to_string (p.S.procs, p.next_label, p.next_node) []))
  in
  let archives = [ Runtime.libstd () ] in
  List.iter
    (fun (b : Workloads.Programs.benchmark) ->
      List.iter
        (fun build ->
          let what =
            b.Workloads.Programs.name ^ "/" ^ Workloads.Suite.build_name build
          in
          let world =
            match
              Linker.Resolve.run (Workloads.Suite.compile build b) ~archives
            with
            | Ok w -> w
            | Error m -> Alcotest.failf "%s: resolve: %s" what m
          in
          let stored =
            match Om.Lift.lift_world world with
            | Error m -> Alcotest.failf "%s: lift: %s" what m
            | Ok msyms ->
                Array.map
                  (fun ms ->
                    match
                      Store.Codec.lifted_of_string (Store.Codec.lifted_to_string ms)
                    with
                    | Ok ms -> ms
                    | Error m -> Alcotest.failf "%s: round trip: %s" what m)
                  msyms
          in
          let via_store =
            match Om.Lift.instantiate world stored with
            | Ok p -> p
            | Error m -> Alcotest.failf "%s: instantiate: %s" what m
          in
          Alcotest.(check string) what (digest (lift world)) (digest via_store))
        Workloads.Suite.all_builds)
    Workloads.Programs.all

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "lift errors name module and offset" `Quick
          test_lift_errors;
        Alcotest.test_case "stored lifts instantiate like Lift.run" `Quick
          test_stored_lift_matches_run ] )
