(* The benchmark's program corpus: the 19 SPEC-analogue programs in both
   build styles (38 programs), each linked with the standard linker and
   at every OM level (228 links). This module compiles them, links one
   of them, simulates one image on the fused path and turns a full set
   of simulations into the code-quality metrics.

   Nothing here goes through [Workloads.Suite.compile_cached],
   [Reports.Measure.decode_cached] or [Reports.Runner]: every timed call
   does its layer's real work instead of reading a memo table. *)

type level = Std | Om of Om.level

let levels = Std :: List.map (fun l -> Om l) Om.all_levels

(* Metric-safe level names: [om-full+sched] becomes [om-full-sched]. *)
let level_name = function
  | Std -> "std"
  | Om l ->
      String.map (fun c -> if c = '+' then '-' else c) (Om.level_name l)

type program = {
  bench : string;
  build : Workloads.Suite.build;
  units : Objfile.Cunit.t list;
}

let program_name p =
  Printf.sprintf "%s/%s" p.bench (Workloads.Suite.build_name p.build)

(* Set-up: compile every program in both build styles. *)
let compile () =
  List.concat_map
    (fun (b : Workloads.Programs.benchmark) ->
      List.map
        (fun build ->
          { bench = b.Workloads.Programs.name;
            build;
            units = Workloads.Suite.compile build b })
        Workloads.Suite.all_builds)
    Workloads.Programs.all

(* One link from objects: resolve against libstd, then the standard
   linker or lift + the OM pipeline. The tracer, when given, gets a span
   per layer call and the pipeline's own pass spans. *)
let link ?tr ~req archives p level =
  let ( let* ) = Result.bind in
  let span name f = Tracer.maybe_span tr ~req name f in
  let* world =
    span "resolve" (fun () -> Linker.Resolve.run p.units ~archives)
  in
  match level with
  | Std ->
      let* image = span "std-link" (fun () -> Linker.Link.link_resolved world) in
      Ok (image, None)
  | Om l ->
      let* program = span "lift" (fun () -> Om.Lift.run world) in
      let* { Om.image; stats } =
        span "optimize" (fun () ->
            Tracer.maybe_obs tr ~req (fun () -> Om.optimize_program l program))
      in
      Ok (image, Some stats)

let image_bytes (i : Linker.Image.t) =
  Bytes.length i.Linker.Image.text + Bytes.length i.Linker.Image.data
  + i.Linker.Image.gat_bytes

type sim = {
  outcome : Machine.Cpu.outcome;
  decode_s : float;
  run_s : float;
}

(* A fresh decode and fused-executor cache per image, as a one-shot
   simulation pays them, then the fused path: no [probe] or [trace]
   hook, which would silently fall back to the unfused loop. *)
let simulate ?tr ~req image =
  let span name f = Tracer.maybe_span tr ~req name f in
  let t0 = Util.now () in
  match
    span "decode" (fun () ->
        Result.map
          (fun d -> (d, Machine.Blocks.create d))
          (Machine.Cpu.decode image))
  with
  | Error e -> Error (Format.asprintf "%a" Machine.Cpu.pp_error e)
  | Ok (d, blocks) -> (
      let t1 = Util.now () in
      match span "run" (fun () -> Machine.Cpu.run_decoded ~blocks d) with
      | Error e -> Error (Format.asprintf "%a" Machine.Cpu.pp_error e)
      | Ok outcome ->
          Ok { outcome; decode_s = t1 -. t0; run_s = Util.now () -. t1 })

(* The deterministic outcome of one link + simulation. *)
type row = {
  prog : string;
  level : level;
  bytes : int;
  stats : Machine.Cpu.stats;
  output : string;
}

let row p level image s =
  { prog = program_name p;
    level;
    bytes = image_bytes image;
    stats = s.outcome.Machine.Cpu.stats;
    output = s.outcome.Machine.Cpu.output }

type quality = {
  q_bytes : (level * int) list;  (* image bytes summed over the 38 programs *)
  q_improvement : (level * float) list;
      (* 100 (1 - geomean of cycles / std cycles) over the 38 programs *)
  q_cycles : (level * int) list;
}

(* Every OM image must print what its program's standard link prints;
   each disagreement (or missing std row) is a failure. *)
let quality tally rows =
  let std = Hashtbl.create 64 in
  List.iter
    (fun r -> if r.level = Std then Hashtbl.replace std r.prog r)
    rows;
  List.iter
    (fun r ->
      match Hashtbl.find_opt std r.prog with
      | None -> Util.fail tally "%s: no standard link to compare" r.prog
      | Some s ->
          if r.output <> s.output then
            Util.fail tally "%s %s: output differs from the standard link"
              r.prog (level_name r.level))
    rows;
  let at l = List.filter (fun r -> r.level = l) rows in
  let ratio r =
    match Hashtbl.find_opt std r.prog with
    | Some s when s.stats.Machine.Cpu.cycles > 0 ->
        float_of_int r.stats.Machine.Cpu.cycles
        /. float_of_int s.stats.Machine.Cpu.cycles
    | _ -> 1.
  in
  { q_bytes = List.map (fun l -> (l, Util.sumi (List.map (fun r -> r.bytes) (at l)))) levels;
    q_improvement =
      List.map
        (fun l -> (l, 100. *. (1. -. Util.geomean (List.map ratio (at l)))))
        levels;
    q_cycles =
      List.map
        (fun l ->
          (l, Util.sumi (List.map (fun r -> r.stats.Machine.Cpu.cycles) (at l))))
        levels }

(* The code-quality end-to-end metrics every workload reports. *)
let quality_metrics q =
  let lv name = List.find (fun l -> level_name l = name) levels in
  List.map
    (fun n -> Util.m ("image_bytes." ^ n) "bytes" (float_of_int (List.assoc (lv n) q.q_bytes)))
    [ "om-full-sched"; "om-gc" ]
  @ List.map
      (fun n -> Util.m ("improvement_pct." ^ n) "%" (List.assoc (lv n) q.q_improvement))
      [ "om-full"; "om-full-sched"; "om-gc" ]

(* Link every program at every level, outside any timed window. *)
let link_all tally archives programs =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun level ->
          match link ~req:0 archives p level with
          | Ok (image, _) -> Some (p, level, image)
          | Error e ->
              Util.fail tally "%s %s: %s" (program_name p) (level_name level) e;
              None)
        levels)
    programs

(* Simulate every image once, in order, for [quality]. *)
let simulate_all tally images =
  List.filter_map
    (fun (p, level, image) ->
      Util.attempt tally;
      match simulate ~req:0 image with
      | Error e ->
          Util.fail tally "%s %s: %s" (program_name p) (level_name level) e;
          None
      | Ok s -> Some (row p level image s))
    images
