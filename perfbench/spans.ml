(** The benchmark's own timing records: one span per call the benchmark
    makes into a layer (a [run_for] slice, a lookup-issue callback, an
    install, a replay, a log scan, an isolated wire or store timing).
    Spans nest through a stack, so a span's self time is its duration
    minus what its direct children cover. Kept in memory; written out
    only at exit. Recording is off unless [enabled] is set, and then
    costs two clock reads and one allocation per span. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root span *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let record name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s = { name; id = !next_id; parent; start = Unix.gettimeofday (); stop = nan } in
    incr next_id;
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        stack := List.tl !stack;
        finished := s :: !finished)
  end

(** Per span name: (count, total seconds, self seconds), sorted by name. *)
let summary () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    !finished;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      let n, total, self_total =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. d, self_total +. self))
    !finished;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

(** One JSON object per line, oldest first; times in microseconds
    since the first span. *)
let write path =
  let spans = List.rev !finished in
  let origin = match spans with s :: _ -> s.start | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\": %S, \"id\": %d, \"parent\": %d, \"start_us\": %.1f, \"end_us\": %.1f}\n"
        s.name s.id s.parent
        (1e6 *. (s.start -. origin))
        (1e6 *. (s.stop -. origin)))
    spans;
  close_out oc
