(* The traced run's span recorder.

   Spans are kept in memory and written out once the run ends. Each
   records its name, start, end, parent and the id of the request
   (link, simulation or daemon request) it belongs to. The benchmark
   opens spans around its own calls into each layer; the passes inside
   [Om.optimize_program] and [Server.Engine.link] already emit
   [Obs.Trace] spans, so [with_obs] runs a call under a fresh
   [Obs.Trace] collector and re-parents what it recorded under the span
   open at the time. A layer's self time is its span's duration minus
   its children's. *)

type span = {
  id : int;
  name : string;
  start_us : float;
  dur_us : float;
  parent : int;  (* -1 at top level *)
  req : int;
}

type t = {
  t0 : float;
  mutable spans : span list;  (* completion order, newest first *)
  mutable next : int;
  mutable open_ : int list;  (* ids of open spans, innermost first *)
}

let create () = { t0 = Util.now (); spans = []; next = 0; open_ = [] }
let us t = (Util.now () -. t.t0) *. 1e6

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let parent_of t = match t.open_ with p :: _ -> p | [] -> -1

let span t ~req name f =
  let id = fresh t in
  let parent = parent_of t in
  t.open_ <- id :: t.open_;
  let start_us = us t in
  let finish () =
    t.open_ <- List.tl t.open_;
    t.spans <-
      { id; name; start_us; dur_us = us t -. start_us; parent; req } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* [Obs.Trace] spans carry a nesting depth instead of a parent; in
   start order, a span's parent is the latest span one level up. *)
let with_obs t ~req f =
  let base = us t in
  let c, v = Obs.Trace.with_collector f in
  let root = parent_of t in
  let last_at = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let id = fresh t in
      let parent =
        if s.Obs.Trace.depth = 0 then root
        else
          Option.value ~default:root
            (Hashtbl.find_opt last_at (s.Obs.Trace.depth - 1))
      in
      Hashtbl.replace last_at s.Obs.Trace.depth id;
      t.spans <-
        { id;
          name = s.Obs.Trace.name;
          start_us = base +. s.Obs.Trace.start_us;
          dur_us = s.Obs.Trace.dur_us;
          parent;
          req }
        :: t.spans)
    (Obs.Trace.spans c);
  v

(* Self time per span id: duration minus the children's durations. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur_us +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  fun s -> s.dur_us -. Option.value ~default:0. (Hashtbl.find_opt child s.id)

(* Total self time in milliseconds of the spans whose name satisfies
   [pick]. *)
let self_ms t pick =
  let self = self_times t in
  List.fold_left
    (fun acc s -> if pick s.name then acc +. self s else acc)
    0. t.spans
  /. 1000.

(* Total duration in milliseconds of the spans whose name satisfies
   [pick] (children included). *)
let total_ms t pick =
  List.fold_left
    (fun acc s -> if pick s.name then acc +. s.dur_us else acc)
    0. t.spans
  /. 1000.

let count t = List.length t.spans

(* Chrome trace-event JSON, one complete event per span; [args] carries
   the span id, its parent, its request and its end time. *)
let write t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"end\":%.3f}}\n"
        (if i = 0 then "" else ",")
        (Obs.Json.to_string (Obs.Json.String s.name))
        s.start_us s.dur_us s.id s.parent s.req (s.start_us +. s.dur_us))
    (List.sort (fun a b -> compare a.start_us b.start_us) t.spans);
  output_string oc "]\n"

(* The untraced run passes [None]: no clock reads, no allocation. *)
let maybe_span tr ~req name f =
  match tr with None -> f () | Some t -> span t ~req name f

let maybe_obs tr ~req f = match tr with None -> f () | Some t -> with_obs t ~req f
