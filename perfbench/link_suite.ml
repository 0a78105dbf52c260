(* Workload [link-suite]: a closed loop on one thread. Each pass links
   the 38 programs from their objects with the standard linker and at
   every OM level (228 links) in a seeded order. OM and the linker do all
   the work; the simulator runs only in the check after the window. *)

type reference = {
  images : Linker.Image.t array;  (* by job index *)
  sigs : (int * (string * int) list) array;
      (* image bytes and Om.Stats per job: must repeat exactly *)
}

type window = {
  run : Util.passes;
  links : int;
  latencies : (int * float) list;  (* job index, seconds per link *)
  first : reference;
}

(* Every pass after the first (or every pass, given [reference]) must
   reproduce the reference exactly. *)
let window ?tr ?reference ~rng ~seconds tally archives jobs =
  let n = Array.length jobs in
  let lat = ref [] and links = ref 0 and first = ref reference in
  let pass k =
    let images = Array.make n None and sigs = Array.make n (0, []) in
    Array.iter
      (fun j ->
        let p, level = jobs.(j) in
        let req = !links in
        let t0 = Util.now () in
        let r =
          Tracer.maybe_span tr ~req ("link:" ^ Corpus.level_name level)
            (fun () -> Corpus.link ?tr ~req archives p level)
        in
        lat := (j, Util.now () -. t0) :: !lat;
        incr links;
        Util.attempt tally;
        match r with
        | Error e ->
            Util.fail tally "%s %s: %s" (Corpus.program_name p)
              (Corpus.level_name level) e
        | Ok (image, stats) ->
            images.(j) <- Some image;
            sigs.(j) <-
              ( Corpus.image_bytes image,
                match stats with Some s -> Om.Stats.to_alist s | None -> [] ))
      (Util.shuffle rng (Array.init n Fun.id));
    match !first with
    | Some r ->
        if r.sigs <> sigs then
          Util.fail tally
            "pass %d: image bytes or OM stats differ from the reference pass" k
    | None ->
        if Array.for_all Option.is_some images then
          first := Some { images = Array.map Option.get images; sigs }
  in
  let run = Util.run_passes ~seconds pass in
  match !first with
  | None -> Error "no pass linked every program"
  | Some first -> Ok { run; links = !links; latencies = !lat; first }

let e2e jobs w = Util.pass_op_metrics ~jobs:(Array.length jobs) w.run w.latencies

let stats_fields =
  [ "insns_after"; "gat_bytes_after"; "addr_converted"; "addr_nullified";
    "sites_grown"; "branches_elided"; "relax_iterations"; "procs_deleted" ]

(* Per-layer figures are per pass of 228 links. *)
let per_layer w tr =
  let per_pass ms = ms /. float_of_int w.run.Util.passes in
  let self pick = per_pass (Tracer.self_ms tr pick) in
  let passes =
    [ ("linker.resolve_ms", self (String.equal "resolve"));
      ("linker.std_link_ms", self (String.equal "std-link"));
      ("om.lift_ms", self (String.equal "lift"));
      ("om.gc_ms", self (String.equal "gc"));
      ("om.gat-merge_ms", self (String.equal "gat-merge"));
      ("om.datalayout_ms", self (String.equal "datalayout"));
      ("om.transform_ms", self (String.starts_with ~prefix:"transform:"));
      ("om.sched_ms", self (String.equal "sched"));
      ("om.relax_ms", self (String.equal "relax"));
      ("om.lower_ms", self (String.equal "lower"));
      ("om.verify_ms", self (String.equal "verify")) ]
  in
  let levels =
    List.map
      (fun l ->
        let n = Corpus.level_name l in
        ( "om.level_ms." ^ n,
          per_pass (Tracer.total_ms tr (String.equal ("link:" ^ n))) ))
      Corpus.levels
  in
  let stat f =
    Array.fold_left
      (fun acc (_, kv) -> acc + Option.value ~default:0 (List.assoc_opt f kv))
      0 w.first.sigs
  in
  List.map (fun (n, v) -> Util.m n "ms" v) (passes @ levels)
  @ List.map (fun f -> Util.m ("om." ^ f) "count" (float_of_int (stat f))) stats_fields
  @ [ Util.m "ocaml.minor_mb" "MB" w.run.Util.minor_mb;
      Util.m "ocaml.major_collections" "count" w.run.Util.major ]

let run ~seed ~seconds ~trace tally =
  let ( let* ) = Result.bind in
  let archives = [ Runtime.libstd () ] in
  let programs, setup_s = Util.median_setup 5 Corpus.compile in
  let jobs =
    Array.of_list
      (List.concat_map (fun p -> List.map (fun l -> (p, l)) Corpus.levels) programs)
  in
  let rng = Random.State.make [| seed |] in
  (* one untimed pass lets the heap grow to its working size; it is also
     the reference every timed pass must reproduce *)
  let* warm = window ~rng ~seconds:0. tally archives jobs in
  let reference = warm.first in
  let* w = window ~reference ~rng ~seconds tally archives jobs in
  let peak = Util.peak_rss_mb () in
  (* the check: every image of the reference pass simulated once *)
  let rows =
    Corpus.simulate_all tally
      (List.mapi
         (fun j image -> (fst jobs.(j), snd jobs.(j), image))
         (Array.to_list reference.images))
  in
  let e2e =
    e2e jobs w
    @ Corpus.quality_metrics (Corpus.quality tally rows)
    @ [ Util.m "setup_s" "s" setup_s; Util.m "peak_rss_mb" "MB" peak ]
  in
  if not trace then Ok (e2e, [], None)
  else
    let tr = Tracer.create () in
    let* tw = window ~tr ~reference ~rng ~seconds tally archives jobs in
    let overhead =
      100. *. ((Util.median tw.run.Util.pass_s /. Util.median w.run.Util.pass_s) -. 1.)
    in
    Ok
      ( e2e,
        per_layer tw tr @ [ Util.m "bench.trace_overhead_pct" "%" overhead ],
        Some tr )
