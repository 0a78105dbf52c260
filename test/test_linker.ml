module I = Isa.Insn
module R = Isa.Reg

let compile = Testutil.compile

let resolve ?entry units archives = Linker.Resolve.run ?entry units ~archives

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_duplicate_definition () =
  let a = compile ~name:"a.o" {|func f() { return 1; } func main() { return f(); }|} in
  let b = compile ~name:"b.o" {|func f() { return 2; }|} in
  match resolve [ a; b ] [ Runtime.libstd () ] with
  | Error m ->
      Alcotest.(check bool) "mentions the symbol" true
        (contains ~affix:"f" m)
  | Ok _ -> Alcotest.fail "expected duplicate-definition error"

let test_undefined_symbol () =
  let a =
    compile ~name:"a.o"
      {|extern func ghost(); func main() { return ghost(); }|}
  in
  match resolve [ a ] [ Runtime.libstd () ] with
  | Error m ->
      Alcotest.(check bool) "mentions ghost" true
        (contains ~affix:"ghost" m)
  | Ok _ -> Alcotest.fail "expected undefined-symbol error"

let test_missing_entry () =
  let a = compile ~name:"a.o" {|func not_main() { return 0; }|} in
  match resolve [ a ] [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected missing-entry error"

let test_local_symbols_do_not_collide () =
  let a =
    compile ~name:"a.o"
      {|static var secret = 1;
        static func peek() { return secret; }
        func geta() { return peek(); }|}
  in
  let b =
    compile ~name:"b.o"
      {|static var secret = 2;
        static func peek() { return secret; }
        func getb() { return peek(); }
        extern func geta();
        func main() {
          io_putint(geta() * 10 + getb());
          return 0; }|}
  in
  let image = Testutil.link_std [ a; b ] in
  Alcotest.(check string) "each module sees its own statics" "12"
    (Testutil.run_image image).Machine.Cpu.output

let test_commons_merge () =
  (* the same common at different sizes: max wins, both modules share it *)
  let a =
    compile ~name:"a.o"
      {|var blk[4];
        func seta() { blk[0] = 11; return 0; }|}
  in
  let b =
    compile ~name:"b.o"
      {|var blk[8];
        extern func seta();
        func main() {
          seta();
          blk[7] = 22;
          io_putint(blk[0] * 100 + blk[7]);
          return 0; }|}
  in
  let world =
    match resolve [ a; b ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  let blk =
    Array.to_list world.Linker.Resolve.objs
    |> List.find (fun (o : Linker.Resolve.obj_rec) -> o.o_name = "blk")
  in
  Alcotest.(check int) "max size wins" 64 blk.Linker.Resolve.o_size;
  (match blk.Linker.Resolve.o_placement with
  | Linker.Resolve.Common -> ()
  | _ -> Alcotest.fail "blk should be a common");
  let image = Result.get_ok (Linker.Link.link_resolved world) in
  Alcotest.(check string) "shared storage" "1122"
    (Testutil.run_image image).Machine.Cpu.output

let test_archive_pull_on_demand () =
  (* a program using only io_putint must not pull the sort module *)
  let a = compile ~name:"a.o" {|func main() { io_putint(1); return 0; }|} in
  let world =
    match resolve [ a ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  let module_names =
    Array.to_list world.Linker.Resolve.modules
    |> List.map (fun (u : Objfile.Cunit.t) -> u.name)
  in
  Alcotest.(check bool) "sys.o pulled" true (List.mem "sys.o" module_names);
  Alcotest.(check bool) "crt0 pulled" true (List.mem "crt0.o" module_names);
  Alcotest.(check bool) "sort.o not pulled" false
    (List.mem "sort.o" module_names)

let test_gat_merge_dedups () =
  (* two modules referencing the same global share one merged slot *)
  let a =
    compile ~name:"a.o" {|var shared = 0;
                          func fa() { shared = shared + 1; return shared; }|}
  in
  let b =
    compile ~name:"b.o"
      {|extern var shared;
        extern func fa();
        func main() { fa(); io_putint(shared); return 0; }|}
  in
  let world =
    match resolve [ a; b ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  let gat = Linker.Gat.merge world in
  Alcotest.(check int) "one group" 1 gat.Linker.Gat.ngroups;
  let keys = Array.to_list gat.Linker.Gat.slots in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "slots are distinct" (List.length distinct)
    (List.length keys)

let test_gat_grouping_capacity () =
  let a = compile ~name:"a.o" {|var x = 0; var y = 0;
                                func main() { x = y + 1; io_putint(x); return 0; }|} in
  let world =
    match resolve [ a ] [ Runtime.libstd () ] with
    | Ok w -> w
    | Error m -> Alcotest.failf "resolve: %s" m
  in
  (* absurdly small capacity forces one group per module *)
  let gat = Linker.Gat.merge ~capacity:3 world in
  Alcotest.(check bool) "several groups" true (gat.Linker.Gat.ngroups > 1);
  (* procedures of the same module share a group *)
  Array.iteri
    (fun m _ ->
      Alcotest.(check bool) "group id valid" true
        (gat.Linker.Gat.group_of_module.(m) < gat.Linker.Gat.ngroups))
    world.Linker.Resolve.modules;
  (* the multi-group program still links and runs *)
  match Linker.Link.link_resolved ~gat_capacity:3 world with
  | Ok image ->
      Alcotest.(check string) "multi-GAT program runs" "1"
        (Testutil.run_image image).Machine.Cpu.output
  | Error m -> Alcotest.failf "multi-group link failed: %s" m

let test_literal_displacements_in_window () =
  let a = compile ~name:"a.o" {|var g = 3;
                                func main() { io_putint(g); return 0; }|} in
  let image = Testutil.link_std [ a ] in
  (* every ldq rX, d(gp) must point inside the image's GAT *)
  let insns = Linker.Image.insns image in
  Array.iter
    (fun (p : Linker.Image.proc_info) ->
      if p.uses_gp then
        let first = (p.entry - image.Linker.Image.text_base) / 4 in
        for k = first to first + (p.size / 4) - 1 do
          match insns.(k) with
          | I.Ldq { rb; disp; _ } when R.equal rb R.gp ->
              let addr = p.gp_value + disp in
              Alcotest.(check bool) "GAT slot within table" true
                (addr >= image.Linker.Image.gat_base
                && addr < image.Linker.Image.gat_base + image.Linker.Image.gat_bytes)
          | _ -> ()
        done)
    image.Linker.Image.procs

let test_image_metadata () =
  let a = compile ~name:"a.o" {|func main() { return 0; }|} in
  let image = Testutil.link_std [ a ] in
  (match Linker.Image.validate image with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid image: %s" m);
  Alcotest.(check bool) "main found" true
    (Option.is_some (Linker.Image.find_proc image "main"));
  Alcotest.(check bool) "entry is __start" true
    (match Linker.Image.proc_containing image image.Linker.Image.entry with
    | Some p -> String.equal p.name "__start"
    | None -> false);
  Alcotest.(check bool) "symbol map has main" true
    (Option.is_some (Linker.Image.symbol_address image "main"))

let test_gp_anchor_patch () =
  (* decode a procedure's GP setup and check it computes its gp_value *)
  let a = compile ~name:"a.o" {|var g = 5;
                                func main() { io_putint(g); return 0; }|} in
  let image = Testutil.link_std [ a ] in
  let p = Option.get (Linker.Image.find_proc image "main") in
  Alcotest.(check bool) "main uses gp" true p.Linker.Image.uses_gp;
  let insns = Linker.Image.insns image in
  let first = (p.entry - image.Linker.Image.text_base) / 4 in
  (* find the ldah gp,(pv) and lda gp,(gp) pair in the prologue *)
  let hi = ref None and lo = ref None in
  for k = first to first + (p.size / 4) - 1 do
    match insns.(k) with
    | I.Ldah { ra; rb; disp } when R.equal ra R.gp && R.equal rb R.pv ->
        if !hi = None then hi := Some disp
    | I.Lda { ra; rb; disp } when R.equal ra R.gp && R.equal rb R.gp ->
        if !lo = None then lo := Some disp
    | _ -> ()
  done;
  match (!hi, !lo) with
  | Some hi, Some lo ->
      Alcotest.(check int) "gp = entry + hi<<16 + lo" p.gp_value
        (p.entry + (hi * 65536) + lo)
  | _ -> Alcotest.fail "no GP setup pair found in main"

let test_gpdisp_out_of_range_is_link_error () =
  (* a corrupt GPDISP anchor pushes the GP displacement past the 32-bit
     ldah/lda split: the linker must answer with a structured error, not
     an exception out of split32 *)
  let a = compile ~name:"a.o" {|func main() { return 0; }|} in
  let corrupt =
    { a with
      Objfile.Cunit.relocs =
        Objfile.Reloc.v ~section:Objfile.Section.Text ~offset:0
          (Objfile.Reloc.Gpdisp { anchor = -0x7000_0000; pair = 4 })
        :: a.Objfile.Cunit.relocs }
  in
  match Linker.Link.link [ corrupt ] ~archives:[ Runtime.libstd () ] with
  | Ok _ -> Alcotest.fail "expected a GPDISP range error"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error names GPDISP (got %S)" m)
        true
        (contains ~affix:"GPDISP" m)

let test_image_insns_truncated () =
  let image = Testutil.link_std [ compile ~name:"a.o" {|func main() { return 0; }|} ] in
  let image = { image with Linker.Image.text = Bytes.sub image.Linker.Image.text 0 6 } in
  match Linker.Image.insns image with
  | _ -> Alcotest.fail "decoded a truncated text"
  | exception Invalid_argument m ->
      Alcotest.(check string) "documented error"
        "Image.insns: undecodable text: length 6 is not a multiple of 4" m

let suite =
  ( "linker",
    [ Alcotest.test_case "duplicate definition" `Quick test_duplicate_definition;
      Alcotest.test_case "undefined symbol" `Quick test_undefined_symbol;
      Alcotest.test_case "missing entry" `Quick test_missing_entry;
      Alcotest.test_case "local symbols isolated" `Quick
        test_local_symbols_do_not_collide;
      Alcotest.test_case "commons merge" `Quick test_commons_merge;
      Alcotest.test_case "archive pull on demand" `Quick
        test_archive_pull_on_demand;
      Alcotest.test_case "GAT dedup" `Quick test_gat_merge_dedups;
      Alcotest.test_case "GAT grouping" `Quick test_gat_grouping_capacity;
      Alcotest.test_case "literal displacements" `Quick
        test_literal_displacements_in_window;
      Alcotest.test_case "image metadata" `Quick test_image_metadata;
      Alcotest.test_case "GPDISP patching" `Quick test_gp_anchor_patch;
      Alcotest.test_case "GPDISP out of range is a link error" `Quick
        test_gpdisp_out_of_range_is_link_error;
      Alcotest.test_case "Image.insns names truncated text" `Quick
        test_image_insns_truncated ] )
