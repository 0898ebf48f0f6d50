(* Steady-state benchmark of the P2 monitoring runtime.

   One command, three seeded workloads on the unmodified libraries:

     ring64       64-node P2-Chord, sequential engine, tracing off
     monitor64    the same ring on the one-shard round/barrier loop with
                  the paper's section 3 monitoring suite installed after
                  convergence
     forensics21  the paper's 21-node ring with the flight recorder and
                  durable checkpoints on from boot, followed by the
                  forensic cookbook's per-rule count query

   Every workload carries the same open-loop lookup stream. Each run
   boots the ring twice from the same seed (two set-ups, reported as
   their median): the first copy is measured, the second repeats the
   first copy's slices to prove the engine deterministic. See NOTES.md
   for the metrics, their units and the layer table.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
   a correctness gate fails and 2 on a usage error. *)

open Overlog
module Engine = P2_runtime.Engine
module Node = P2_runtime.Node

(* --- Workloads ---------------------------------------------------------- *)

type workload = {
  name : string;
  nodes : int;
  shards : int;
      (** 0: the engine's default sequential loop; 1: the round/barrier
          loop on the calling domain. Two shards on the 2-vCPU defining
          host spread 14-37% from run to run, past any bound: barrier
          wake-ups there wait on the neighbours' load. *)
  install_at : float option;  (** when the monitoring suite goes in *)
  lookups_from : float;  (** when the lookup stream starts *)
  window_at : float;  (** when the timed window starts *)
  forensics : bool;  (** tracer, flight recorder, checkpoints, replay *)
}

let workloads =
  [
    {
      name = "ring64";
      nodes = 64;
      shards = 0;
      install_at = None;
      lookups_from = 180.;
      window_at = 210.;
      forensics = false;
    };
    {
      name = "monitor64";
      nodes = 64;
      shards = 1;
      install_at = Some 120.;
      lookups_from = 180.;
      window_at = 210.;
      forensics = false;
    };
    {
      name = "forensics21";
      nodes = 21;
      shards = 0;
      install_at = None;
      lookups_from = 90.;
      window_at = 120.;
      forensics = true;
    };
  ]

(* Shared by every workload. *)
let slice_vs = 0.5 (* virtual seconds per timed slice *)
let min_slices = 100
let lookup_rate = 16. (* lookups per virtual second, open loop *)
let min_lookups = 1000
let lookup_deadline = 5. (* virtual seconds to answer a lookup *)
let ring_check_every = 10 (* slices between ring_correct checks *)
let check_slices = 20 (* slices the second copy repeats without spans *)
let reference_every = 2 (* slices or set-up steps between host-speed samples *)
let query_vs = 12. (* forensic query: the window's last virtual seconds *)
let snapshot_period = 30.
let req_base = 2_000_000_000 (* lookup ids above f_rand's range *)

let step1_query =
  "materialize(execs, infinity, infinity, keys(1,2)).\n\
   f1 execs@N(R, count<*>) :- ruleExec@N(R, C, E, TC, TO, EV)."

(* --- Helpers ------------------------------------------------------------ *)

let now = Unix.gettimeofday
let sdiv a b = if b = 0. then 0. else a /. b

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted list. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let registry_total engine addrs name =
  List.fold_left
    (fun acc a ->
      acc
      +. Option.value ~default:0.
           (Metrics.value (Node.registry (Engine.node engine a)) name))
    0. addrs

(* Registry counters read at both ends of the window (sums over nodes). *)
let counter_names =
  [
    "net.msgs_tx"; "net.bytes_tx"; "machine.triggers"; "machine.agenda.executed";
    "machine.drains"; "machine.drain_work_us.sum"; "machine.naive_refires";
    "store.inserts"; "store.probes"; "transport.tx.frames"; "transport.tx.acks";
    "transport.tx.heartbeats"; "transport.retransmits"; "tracer.taps";
    "tracer.rule_exec_rows"; "tracer.tuples_registered"; "trace.log.records";
    "trace.log.bytes"; "trace.log.flush_ns"; "ckpt.snapshots"; "ckpt.bytes";
    "ckpt.write_ns"; "engine.barrier_wait_ns";
  ]

let read_counters engine addrs =
  List.map (fun n -> (n, registry_total engine addrs n)) counter_names

(* --- The lookup stream -------------------------------------------------- *)

(* Open loop in virtual time: lookup k is due at [from_ + k / rate], from
   a seeded random source node to a seeded random key. Answers are kept
   per source node because, on a sharded engine, each node's watch runs
   on its own shard's domain. *)
type stream = {
  rng : Random.State.t;
  mutable issued : int;
  mutable live : bool;
  due : (int, float * int) Hashtbl.t;  (** request id -> due time, key *)
  answers : (int * float * string) list ref array;
      (** per source node: request id, answer time, answering address *)
}

let start_stream engine (net : Chord.network) ~seed ~from_ =
  let addrs = Array.of_list net.addrs in
  let s =
    {
      rng = Random.State.make [| seed; 0x1007 |];
      issued = 0;
      live = true;
      due = Hashtbl.create 4096;
      answers = Array.map (fun _ -> ref []) addrs;
    }
  in
  Array.iteri
    (fun i addr ->
      Engine.watch engine addr "lookupResults" (fun t ->
          match Tuple.field t 5 with
          | Value.VInt id when id >= req_base ->
              let answer = Value.as_addr (Tuple.field t 4) in
              s.answers.(i) :=
                (id, Engine.local_time engine addr, answer) :: !(s.answers.(i))
          | _ -> ()))
    addrs;
  let rec issue due () =
    if s.live then begin
      Spans.record "lookup_issue" (fun () ->
          let src = addrs.(Random.State.int s.rng (Array.length addrs)) in
          let key = Random.State.full_int s.rng Value.Ring.space in
          let req_id = req_base + s.issued in
          Hashtbl.replace s.due req_id (due, key);
          Chord.lookup net ~addr:src ~key ~req_id ());
      s.issued <- s.issued + 1;
      let next = from_ +. (float_of_int s.issued /. lookup_rate) in
      Engine.at engine ~time:next (issue next)
    end
  in
  Engine.at engine ~time:from_ (issue from_);
  s

(* Lookups due inside [t_start, t_end): (attempted, failed, latencies in
   virtual ms). A lookup fails when it is unanswered within the deadline
   or answered by another node than [Chord.true_successor]. Latencies
   are those of the first [min_lookups] lookups of the window, a fixed
   stretch of virtual time: how long the window runs depends on the
   host's speed, and the ring's routing still improves during it (the
   finger tables fill over 31 fix-finger periods), so a longer window
   would otherwise read as lower latency. *)
let evaluate s net ~t_start ~t_end =
  let first = Hashtbl.create 4096 in
  Array.iter
    (fun l ->
      List.iter
        (fun (id, t, a) ->
          match Hashtbl.find_opt first id with
          | Some (t0, _) when t0 <= t -> ()
          | _ -> Hashtbl.replace first id (t, a))
        !l)
    s.answers;
  Hashtbl.fold
    (fun id (due, key) (attempted, failed, lat) ->
      if due < t_start || due >= t_end then (attempted, failed, lat)
      else
        match Hashtbl.find_opt first id with
        | Some (t, a)
          when t -. due <= lookup_deadline && a = Chord.true_successor net key ->
            let timed = due < t_start +. (float_of_int min_lookups /. lookup_rate) in
            (attempted + 1, failed, if timed then (1000. *. (t -. due)) :: lat else lat)
        | _ -> (attempted + 1, failed + 1, lat))
    s.due (0, 0, [])

(* --- Oracles over live state -------------------------------------------- *)

let table_rows engine addr name =
  match Store.Catalog.find (Node.catalog (Engine.node engine addr)) name with
  | Some table -> Store.Table.tuples table ~now:(Engine.now engine)
  | None -> []

(* faultyNode rows naming a live node: every node of these rings is live. *)
let false_faulty_rows engine (net : Chord.network) =
  List.fold_left
    (fun acc addr ->
      List.fold_left
        (fun acc row ->
          if List.mem (Value.as_addr (Tuple.field row 2)) net.addrs then acc + 1
          else acc)
        acc
        (table_rows engine addr "faultyNode"))
    0 net.addrs

(* --- Set-up ------------------------------------------------------------- *)

type copy = {
  engine : Engine.t;
  net : Chord.network;
  stream : stream;
  dir : string option;  (** flight-recorder and checkpoint root *)
  setup_s : float;  (** corrected for host speed (host.ml) *)
  setup_wall_s : float;
  converge_vs : float;  (** virtual time of the first ring_correct *)
  install_ms : float;
}

let install_suite (net : Chord.network) =
  ignore (Core.Ring_check.install net);
  ignore (Core.Consistency.install net);
  ignore (Core.Snapshot.install ~t_snap:snapshot_period net)

(* Boot, converge, install, settle and warm up, up to [w.window_at]. The
   ring is stepped one virtual second at a time so convergence can be
   timed; every copy steps identically, so copies stay comparable. *)
let setup w ~seed ~dir =
  let watch = Host.watch () in
  let stretch f =
    let x, dt = timed f in
    Host.add watch dt;
    x
  in
  (* Install times are corrected from their own reference samples, taken
     outside the set-up stretches. *)
  let (engine, net), boot_s =
    Host.timed (fun () ->
      stretch (fun () ->
           let engine = Engine.create ~seed ~trace:w.forensics () in
           if w.shards > 0 then Engine.set_shards engine w.shards;
           Option.iter
             (fun d ->
               Engine.set_trace_log engine (Filename.concat d "log");
               Engine.set_checkpoint engine (Filename.concat d "ckpt"))
             dir;
           (engine, Spans.record "install" (fun () -> Chord.boot engine w.nodes))))
  in
  let install_s = ref boot_s in
  let stream = start_stream engine net ~seed ~from_:w.lookups_from in
  let converge = ref nan and steps = ref 0 in
  while Engine.now engine < w.window_at do
    (match w.install_at with
    | Some at when Engine.now engine = at ->
        let (), s =
          Host.timed (fun () ->
              stretch (fun () -> Spans.record "install" (fun () -> install_suite net)))
        in
        install_s := s
    | _ -> ());
    stretch (fun () ->
        Spans.record "setup.run_for" (fun () -> Engine.run_for engine 1.0);
        if Float.is_nan !converge && Chord.ring_correct net then
          converge := Engine.now engine);
    incr steps;
    if !steps mod reference_every = 0 then Host.checkpoint watch
  done;
  {
    engine;
    net;
    stream;
    dir;
    setup_s = List.fold_left ( +. ) 0. (Host.corrected watch);
    setup_wall_s = watch.wall;
    converge_vs = !converge;
    install_ms = 1000. *. !install_s;
  }

let teardown c =
  c.stream.live <- false;
  if Option.is_some c.dir then begin
    Engine.close_trace_logs c.engine;
    Engine.close_checkpoints c.engine
  end

(* --- The timed window --------------------------------------------------- *)

type window = {
  t_start : float;
  t_end : float;
  slices : float list;  (** seconds per slice, corrected for host speed *)
  wall : float;  (** wall seconds of all slices *)
  speed : float;  (** median host speed over the window (host.ml) *)
  start_mark : int * float * float;
  marks : (int * float * float) array;
      (** after each slice: events handled, messages and bytes sent *)
  ring_checks : int;
  ring_failures : int;
  ring_at_start : bool;
  ring_at_end : bool;
  before : (string * float) list;
  after : (string * float) list;
  words : float;  (** minor-heap words allocated in the window, all domains *)
  minor_gcs : int;
  major_gcs : int;
}

let mark c =
  ( Engine.events_handled c.engine,
    registry_total c.engine c.net.addrs "net.msgs_tx",
    registry_total c.engine c.net.addrs "net.bytes_tx" )

(* Run slices until [stop slices wall] holds. Only the [run_for] calls
   are timed; ring checks and counter reads sit between them. *)
let run_window c ~stop =
  let ring_at_start = Chord.ring_correct c.net in
  let before = read_counters c.engine c.net.addrs in
  let start_mark = mark c in
  let t_start = Engine.now c.engine in
  let gc0 = Gc.quick_stat () and ref_words = !Host.words and ref_gcs = !Host.minor_gcs in
  let watch = Host.watch () in
  let marks = ref [] and checks = ref 0 and failures = ref 0 and n = ref 0 in
  while not (stop !n watch.wall) do
    let (), dt =
      timed (fun () -> Spans.record "run_for" (fun () -> Engine.run_for c.engine slice_vs))
    in
    Host.add watch dt;
    incr n;
    marks := mark c :: !marks;
    if !n mod ring_check_every = 0 then begin
      incr checks;
      if not (Chord.ring_correct c.net) then incr failures
    end;
    if !n mod reference_every = 0 then Host.checkpoint watch
  done;
  let slices = Host.corrected watch in
  let gc1 = Gc.quick_stat () in
  {
    t_start;
    t_end = Engine.now c.engine;
    slices;
    wall = watch.wall;
    speed = median watch.speeds;
    start_mark;
    marks = Array.of_list (List.rev !marks);
    ring_checks = !checks;
    ring_failures = !failures;
    ring_at_start;
    ring_at_end = Chord.ring_correct c.net;
    before;
    after = read_counters c.engine c.net.addrs;
    words = gc1.minor_words -. gc0.minor_words -. (!Host.words -. ref_words);
    minor_gcs = gc1.minor_collections - gc0.minor_collections - (!Host.minor_gcs - ref_gcs);
    major_gcs = gc1.major_collections - gc0.major_collections;
  }

let delta win name = List.assoc name win.after -. List.assoc name win.before

(* --- Isolated layer timings (span run only) ------------------------------ *)

(* Repeat [f] (which performs [ops] operations) until 50 ms and 20
   repetitions have passed; the median nanoseconds per operation. *)
let ns_per_op ~ops f =
  if ops = 0 then 0.
  else begin
    let samples = ref [] and total = ref 0. and reps = ref 0 in
    let r0 = Host.sample () in
    while !total < 0.05 || !reps < 20 do
      let dt = f () in
      samples := (1e9 *. dt /. float_of_int ops) :: !samples;
      total := !total +. dt;
      incr reps
    done;
    median !samples *. Host.speed r0 (Host.sample ())
  end

(* Relations a rule may ship to another node: the head's location
   differs from the location of the first body atom. *)
let shipped_names node =
  List.fold_left
    (fun acc (_, src) ->
      match Parser.parse src with
      | [ Ast.Rule r ] -> (
          match List.find_map (function Ast.Atom a -> Some a | _ -> None) r.rbody with
          | Some { args = loc :: _; _ }
            when loc <> r.rhead.hloc && not (List.mem r.rhead.hatom acc) ->
              r.rhead.hatom :: acc
          | _ -> acc)
      | _ | (exception Parser.Error _) -> acc)
    [] (Node.rules node)
  |> List.sort compare

let wire_mix_cap = 20_000

(* Keep the first [wire_mix_cap] shipped tuples [addr] sees while [on]. *)
let tap_wire_mix engine addr on =
  let mix = ref [] and n = ref 0 in
  List.iter
    (fun name ->
      Engine.watch engine addr name (fun t ->
          if !on && !n < wire_mix_cap then begin
            mix := t :: !mix;
            incr n
          end))
    (shipped_names (Engine.node engine addr));
  mix

let time_wire mix =
  let tuples = Array.of_list mix in
  let frames = Array.map (fun t -> Wire.encode t) tuples in
  let ops = Array.length tuples in
  let encode_ns =
    Spans.record "wire.encode" (fun () ->
        ns_per_op ~ops (fun () ->
            snd (timed (fun () -> Array.iter (fun t -> ignore (Wire.encode t)) tuples))))
  in
  let decode_ns =
    Spans.record "wire.decode" (fun () ->
        ns_per_op ~ops (fun () ->
            snd (timed (fun () -> Array.iter (fun f -> ignore (Wire.decode f)) frames))))
  in
  (encode_ns, decode_ns)

(* Re-insert the rows of [addr]'s catalog into fresh tables and probe
   every row back by its primary key. *)
let time_store engine addr =
  let now_v = Engine.now engine in
  let tables = ref [] in
  Store.Catalog.iter
    (Node.catalog (Engine.node engine addr))
    (fun t ->
      let rows = Store.Table.tuples t ~now:now_v in
      if rows <> [] then tables := (t, rows) :: !tables);
  let ops = List.fold_left (fun acc (_, rows) -> acc + List.length rows) 0 !tables in
  let fresh () =
    List.map
      (fun (t, rows) ->
        ( Store.Table.create ~lifetime:(Store.Table.lifetime t)
            ~keys:(Store.Table.keys t) (Store.Table.name t),
          rows ))
      !tables
  in
  let fill copies =
    List.iter
      (fun (t, rows) ->
        List.iter (fun r -> ignore (Store.Table.insert t ~now:now_v r)) rows)
      copies
  in
  let positions t row =
    match Store.Table.keys t with
    | [] -> List.init (Tuple.arity row) (fun i -> i + 1)
    | keys -> keys
  in
  let probe_all copies =
    List.iter
      (fun (t, rows) ->
        List.iter
          (fun r ->
            let positions = positions t r in
            ignore
              (Store.Table.probe t ~now:now_v ~positions
                 ~values:(Tuple.key_of r positions)))
          rows)
      copies
  in
  let insert_ns =
    Spans.record "store.insert" (fun () ->
        ns_per_op ~ops (fun () ->
            let copies = fresh () in
            snd (timed (fun () -> fill copies))))
  in
  let copies = fresh () in
  fill copies;
  probe_all copies (* builds the lazy indexes *);
  let probe_ns =
    Spans.record "store.probe" (fun () ->
        ns_per_op ~ops (fun () -> snd (timed (fun () -> probe_all copies))))
  in
  (insert_ns, probe_ns)

(* --- Forensics ------------------------------------------------------------ *)

type forensic = {
  query_s : float;
  restore_s : float;  (** span run only; 0 otherwise *)
  records : int;  (** records restored by the query's window *)
  read_ns_per_record : float;
  query_ok : bool;
}

(* Read the whole window back with Seglog.iter, tallying ruleExec
   records per (node, rule) over the query's sub-window; answer the
   cookbook's Step 1 query over the same sub-window and compare. A
   record re-inserting the same ruleExec key is one execution, as the
   table counts it. *)
let forensic_query dir ~t_start ~t_end ~restore =
  let log = Filename.concat dir "log" in
  let addrs = Core.Replay.node_dirs log in
  let q_from = t_end -. query_vs in
  let tally = Hashtbl.create 256 and seen = Hashtbl.create 65536 in
  let read = ref 0 in
  let (), read_s =
    Host.timed (fun () ->
        Spans.record "seglog_iter" (fun () ->
            List.iter
              (fun addr ->
                Seglog.iter ~from_:t_start ~to_:t_end ~dir:(Filename.concat log addr)
                  (fun r ->
                    incr read;
                    let t = r.Seglog.tuple in
                    if r.stamp >= q_from && Tuple.name t = "ruleExec" then begin
                      let key = (addr, Tuple.key_of t [ 2; 3; 4; 7 ]) in
                      if not (Hashtbl.mem seen key) then begin
                        Hashtbl.replace seen key ();
                        let rule = Value.to_string (Tuple.field t 2) in
                        Hashtbl.replace tally (addr, rule)
                          (1 + Option.value ~default:0 (Hashtbl.find_opt tally (addr, rule)))
                      end
                    end))
              addrs))
  in
  let restore_s =
    if restore then
      let (), s =
        Host.timed (fun () ->
            Spans.record "replay_load" (fun () ->
                ignore (Core.Replay.load ~from_:q_from ~to_:t_end ~dir:log ())))
      in
      s
    else 0.
  in
  let replay, query_s =
    Host.timed (fun () ->
        Spans.record "replay_load" (fun () ->
            Core.Replay.load ~from_:q_from ~to_:t_end ~program:step1_query ~dir:log ()))
  in
  let rows =
    List.concat_map
      (fun addr ->
        List.map
          (fun row ->
            ( (addr, Value.to_string (Tuple.field row 2)),
              Value.as_int (Tuple.field row 3) ))
          (table_rows replay.engine addr "execs"))
      addrs
  in
  let query_ok =
    List.length rows = Hashtbl.length tally
    && List.for_all (fun (k, n) -> Hashtbl.find_opt tally k = Some n) rows
  in
  {
    query_s;
    restore_s;
    records = List.fold_left (fun acc r -> acc + r.Core.Replay.restored) 0 replay.reports;
    read_ns_per_record = sdiv (1e9 *. read_s) (float_of_int !read);
    query_ok;
  }

(* --- Output ------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
          (Printf.sprintf "%.17g" (if Float.is_finite x.m_value then x.m_value else 0.))
          x.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " body)

(* The per-layer table: layer, metrics, the end-to-end metric the layer
   should move, and where it works hard / little. *)
let layers =
  [
    ( "engine",
      [ "engine.events_per_node_s"; "engine.wall_ns_per_event"; "engine.alloc_words_per_event";
        "gc.minor_collections"; "gc.major_collections" ],
      "sim_rate, slice_ms_p90", "all" );
    ("engine barrier", [ "engine.barrier_wait_ms"; "engine.shard_busy_pct" ], "sim_rate",
     "monitor64 (one shard) / others have no barrier");
    ( "machine",
      [ "machine.triggers_per_node_s"; "machine.executed_per_node_s"; "machine.drains_per_node_s";
        "machine.executed_per_trigger"; "machine.work_us_per_node_s"; "machine.naive_refires" ],
      "sim_rate, replay.query_s", "monitor64 / ring64" );
    ( "store",
      [ "store.inserts_per_node_s"; "store.probes_per_node_s"; "store.live_rows_per_node";
        "store.insert_ns"; "store.probe_ns" ],
      "sim_rate, heap_mb", "monitor64 / forensics21" );
    ("wire", [ "wire.encode_ns"; "wire.decode_ns"; "wire.bytes_per_msg" ],
     "sim_rate, bytes_per_node_s", "ring64 / forensics21");
    ( "transport",
      [ "transport.frames_per_node_s"; "transport.acks_per_node_s";
        "transport.heartbeats_per_node_s"; "transport.retransmits"; "transport.frames_per_msg" ],
      "msgs_per_node_s, sim_rate", "ring64 / forensics21" );
    ( "tracer",
      [ "tracer.taps_per_node_s"; "tracer.rule_exec_rows_per_node_s";
        "tracer.tuples_registered_per_node_s"; "tracer.live_rows_per_node" ],
      "sim_rate, heap_mb", "forensics21 / others 0" );
    ( "seglog",
      [ "seglog.records_per_node_s"; "seglog.log_bytes_per_node_s"; "seglog.flush_ms";
        "seglog.read_ns_per_record" ],
      "sim_rate, replay.query_s", "forensics21 / others 0" );
    ("checkpoint", [ "ckpt.snapshots"; "ckpt.bytes_per_node_s"; "ckpt.write_ms" ], "sim_rate",
     "forensics21 / others 0");
    ( "replay",
      [ "replay.records"; "replay.restore_s"; "replay.query_self_s"; "replay.query_s" ],
      "replay.query_s", "forensics21 / others 0" );
    ("install / analysis", [ "install.ms" ], "setup_s", "monitor64");
    ("chord boot", [ "boot.converge_vs" ], "setup_s", "all");
    ( "chord oracles",
      [ "chord.lookup_fail_frac"; "chord.ring_fail_frac"; "chord.false_faulty_rows" ],
      "(known defects, never filtered)", "all" );
    ( "benchmark spans",
      [ "span.run_for_self_ms"; "span.lookup_issue_self_ms"; "span.install_self_ms";
        "span.replay_load_self_ms"; "span.seglog_iter_self_ms"; "span.wire_self_ms";
        "span.store_self_ms"; "span.sim_rate" ],
      "(self time of the benchmark's calls)", "all" );
  ]

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-38s %16.6g  %s\n" x.m_name x.m_value x.m_unit)
    metrics

let print_layers metrics =
  Printf.printf "per-layer table (window deltas per node-virtual-second unless noted)\n";
  List.iter
    (fun (layer, names, moves, where) ->
      Printf.printf "  %s -- moves %s; heavy / light: %s\n" layer moves where;
      List.iter
        (fun name ->
          match List.find_opt (fun x -> x.m_name = name) metrics with
          | Some x -> Printf.printf "    %-38s %16.6g  %s\n" x.m_name x.m_value x.m_unit
          | None -> ())
        names)
    layers

(* --- One run -------------------------------------------------------------- *)

type measured = {
  copy_setup_s : float;
  copy_setup_wall_s : float;
  converge_vs : float;
  install_ms : float;
  win : window;
  heap_mb : float;
  false_faulty : int;
  live_rows : int;
  tracer_rows : int;
  busy_pct : float;
  store_ns : float * float;  (** insert, probe *)
  wire_ns : float * float;  (** encode, decode *)
  attempted : int;
  failed : int;
  latencies : float list;  (** virtual ms *)
  forensic : forensic option;
}

(* The measured copy: set up, time the window, then read everything the
   report needs before the copy is dropped. *)
let measure w ~seed ~seconds ~trace ~dir =
  let c = setup w ~seed ~dir in
  let sampled = List.nth c.net.addrs (w.nodes / 2) in
  let tap_on = ref false in
  let wire_mix = if trace then tap_wire_mix c.engine sampled tap_on else ref [] in
  tap_on := true;
  let min_window_vs = float_of_int min_lookups /. lookup_rate in
  let win =
    run_window c ~stop:(fun n wall ->
        n >= min_slices && wall >= seconds
        && Engine.now c.engine -. w.window_at >= min_window_vs)
  in
  tap_on := false;
  c.stream.live <- false;
  let at_end = Engine.now c.engine in
  let census f = List.fold_left (fun acc a -> acc + f (Engine.node c.engine a)) 0 c.net.addrs in
  let heap_mb = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let false_faulty = false_faulty_rows c.engine c.net in
  let live_rows = census (fun n -> Store.Catalog.total_live (Node.catalog n) ~now:at_end) in
  let tracer_rows = census (fun n -> Dataflow.Tracer.live_tuples (Node.tracer n) ~now:at_end) in
  let busy_pct =
    registry_total c.engine c.net.addrs "engine.shard_busy_pct" /. float_of_int w.nodes
  in
  let store_ns = if trace then time_store c.engine sampled else (0., 0.) in
  let wire_ns = if trace then time_wire !wire_mix else (0., 0.) in
  (* Let the window's last lookups reach their deadline. *)
  Engine.run_for c.engine lookup_deadline;
  let attempted, failed, latencies =
    evaluate c.stream c.net ~t_start:win.t_start ~t_end:win.t_end
  in
  teardown c;
  let forensic =
    Option.map
      (fun d -> forensic_query d ~t_start:win.t_start ~t_end:win.t_end ~restore:trace)
      dir
  in
  {
    copy_setup_s = c.setup_s;
    copy_setup_wall_s = c.setup_wall_s;
    converge_vs = c.converge_vs;
    install_ms = c.install_ms;
    win;
    heap_mb;
    false_faulty;
    live_rows;
    tracer_rows;
    busy_pct;
    store_ns;
    wire_ns;
    attempted;
    failed;
    latencies;
    forensic;
  }

(* The check copy: same seed, no spans; repeats the first [slices]
   slices and returns its set-up time (corrected and wall) and the
   number of slices whose events or traffic differ from [marks]. *)
let check w ~seed ~dir ~marks ~slices =
  let c = setup w ~seed ~dir in
  let win = run_window c ~stop:(fun n _ -> n >= slices) in
  teardown c;
  let diverged = ref 0 in
  Array.iteri (fun i m -> if m <> marks.(i) then incr diverged) win.marks;
  (c.setup_s, c.setup_wall_s, !diverged)

let run w ~seed ~seconds ~trace =
  let work =
    Filename.concat "_perfbench" (Printf.sprintf "%s-seed%d-%d" w.name seed (Unix.getpid ()))
  in
  let copy_dir tag =
    if w.forensics then begin
      let d = Filename.concat work tag in
      mkdir_p d;
      Some d
    end
    else None
  in
  Spans.enabled := trace;
  let dir = copy_dir "measured" in
  let r = measure w ~seed ~seconds ~trace ~dir in
  Option.iter rm_rf dir;
  let spans = Spans.summary () in
  Spans.enabled := false;
  Gc.full_major ();
  let n_slices = List.length r.win.slices in
  let check_n = min check_slices n_slices in
  let dir = copy_dir "check" in
  let check_setup_s, check_setup_wall_s, diverged =
    check w ~seed ~dir ~marks:r.win.marks ~slices:check_n
  in
  Option.iter rm_rf dir;
  if Sys.file_exists work then rm_rf work;
  (* Gates. *)
  let gates =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (r.win.ring_at_start, "ring_correct fails at the window start");
        (r.win.ring_at_end, "ring_correct fails at the window end");
        ( r.failed = 0,
          Printf.sprintf "%d of %d lookups unanswered or not the true successor" r.failed
            r.attempted );
        ( Option.fold ~none:true ~some:(fun f -> f.query_ok) r.forensic,
          "forensic query rows differ from the Seglog.iter tally" );
        ( diverged = 0,
          Printf.sprintf "the second copy diverged in %d of %d slices" diverged check_n );
      ]
  in
  (* Metrics. *)
  let win = r.win in
  let nodes = float_of_int w.nodes in
  let window_vs = win.t_end -. win.t_start in
  let node_vs = nodes *. window_vs in
  let wall = List.fold_left ( +. ) 0. win.slices (* corrected for host speed *) in
  let events =
    let e1, _, _ = win.marks.(n_slices - 1) and e0, _, _ = win.start_mark in
    float_of_int (e1 - e0)
  in
  let d = delta win in
  let per_node_s name = sdiv (d name) node_vs in
  let sim_rate = sdiv node_vs wall in
  let slices_ms = List.map (fun s -> 1000. *. s) win.slices in
  let lookup_fail_frac = sdiv (float_of_int r.failed) (float_of_int r.attempted) in
  let ring_fail_frac = sdiv (float_of_int win.ring_failures) (float_of_int win.ring_checks) in
  let f_get f = Option.fold ~none:0. ~some:f r.forensic in
  let self name = match List.assoc_opt name spans with Some (_, _, s) -> 1000. *. s | None -> 0. in
  let e2e =
    [
      m "setup_s" "s" (median [ r.copy_setup_s; check_setup_s ]);
      m "sim_rate" "node-vs/s" sim_rate;
      m "slice_ms_p50" "ms" (percentile 0.5 slices_ms);
      m "slice_ms_p90" "ms" (percentile 0.9 slices_ms);
      m "lookup_ms_p50" "ms" (percentile 0.5 r.latencies);
      m "lookup_ms_p99" "ms" (percentile 0.99 r.latencies);
      m "msgs_per_node_s" "msgs/node-vs" (per_node_s "net.msgs_tx");
      m "bytes_per_node_s" "B/node-vs" (per_node_s "net.bytes_tx");
      m "heap_mb" "MB" r.heap_mb;
    ]
  in
  let visible =
    [
      m "setup_wall_s" "s" (median [ r.copy_setup_wall_s; check_setup_wall_s ]);
      m "sim_rate_wall" "node-vs/s" (sdiv node_vs win.wall);
      m "host_speed" "ratio" win.speed;
      m "lookup_fail_frac" "ratio" lookup_fail_frac;
      m "ring_fail_frac" "ratio" ring_fail_frac;
      m "false_faulty_rows" "rows" (float_of_int r.false_faulty);
    ]
    @
    match r.forensic with
    | Some f ->
        [
          m "log_bytes_per_node_s" "B/node-vs" (per_node_s "trace.log.bytes");
          m "forensic_query_s" "s" f.query_s;
        ]
    | None -> []
  in
  let per_layer =
    [
      m "engine.events_per_node_s" "1/node-vs" (sdiv events node_vs);
      m "engine.wall_ns_per_event" "ns" (sdiv (1e9 *. wall) events);
      m "engine.alloc_words_per_event" "words" (sdiv win.words events);
      m "gc.minor_collections" "count" (float_of_int win.minor_gcs);
      m "gc.major_collections" "count" (float_of_int win.major_gcs);
      m "engine.barrier_wait_ms" "ms" (d "engine.barrier_wait_ns" /. nodes /. 1e6);
      m "engine.shard_busy_pct" "%" r.busy_pct;
      m "machine.triggers_per_node_s" "1/node-vs" (per_node_s "machine.triggers");
      m "machine.executed_per_node_s" "1/node-vs" (per_node_s "machine.agenda.executed");
      m "machine.drains_per_node_s" "1/node-vs" (per_node_s "machine.drains");
      m "machine.executed_per_trigger" "ratio"
        (sdiv (d "machine.agenda.executed") (d "machine.triggers"));
      m "machine.work_us_per_node_s" "us/node-vs" (per_node_s "machine.drain_work_us.sum");
      m "machine.naive_refires" "count" (d "machine.naive_refires");
      m "store.inserts_per_node_s" "1/node-vs" (per_node_s "store.inserts");
      m "store.probes_per_node_s" "1/node-vs" (per_node_s "store.probes");
      m "store.live_rows_per_node" "rows" (float_of_int r.live_rows /. nodes);
      m "store.insert_ns" "ns" (fst r.store_ns);
      m "store.probe_ns" "ns" (snd r.store_ns);
      m "wire.encode_ns" "ns" (fst r.wire_ns);
      m "wire.decode_ns" "ns" (snd r.wire_ns);
      m "wire.bytes_per_msg" "B" (sdiv (d "net.bytes_tx") (d "net.msgs_tx"));
      m "transport.frames_per_node_s" "1/node-vs" (per_node_s "transport.tx.frames");
      m "transport.acks_per_node_s" "1/node-vs" (per_node_s "transport.tx.acks");
      m "transport.heartbeats_per_node_s" "1/node-vs" (per_node_s "transport.tx.heartbeats");
      m "transport.retransmits" "count" (d "transport.retransmits");
      m "transport.frames_per_msg" "ratio"
        (sdiv
           (d "transport.tx.frames" +. d "transport.tx.acks" +. d "transport.tx.heartbeats")
           (d "net.msgs_tx"));
      m "tracer.taps_per_node_s" "1/node-vs" (per_node_s "tracer.taps");
      m "tracer.rule_exec_rows_per_node_s" "1/node-vs" (per_node_s "tracer.rule_exec_rows");
      m "tracer.tuples_registered_per_node_s" "1/node-vs"
        (per_node_s "tracer.tuples_registered");
      m "tracer.live_rows_per_node" "rows" (float_of_int r.tracer_rows /. nodes);
      m "seglog.records_per_node_s" "1/node-vs" (per_node_s "trace.log.records");
      m "seglog.log_bytes_per_node_s" "B/node-vs" (per_node_s "trace.log.bytes");
      m "seglog.flush_ms" "ms" (d "trace.log.flush_ns" /. 1e6);
      m "seglog.read_ns_per_record" "ns" (f_get (fun f -> f.read_ns_per_record));
      m "ckpt.snapshots" "count" (d "ckpt.snapshots");
      m "ckpt.bytes_per_node_s" "B/node-vs" (per_node_s "ckpt.bytes");
      m "ckpt.write_ms" "ms" (d "ckpt.write_ns" /. 1e6);
      m "replay.records" "count" (f_get (fun f -> float_of_int f.records));
      m "replay.restore_s" "s" (f_get (fun f -> f.restore_s));
      m "replay.query_self_s" "s" (f_get (fun f -> f.query_s -. f.restore_s));
      m "replay.query_s" "s" (f_get (fun f -> f.query_s));
      m "install.ms" "ms" r.install_ms;
      m "boot.converge_vs" "vs" r.converge_vs;
      m "chord.lookup_fail_frac" "ratio" lookup_fail_frac;
      m "chord.ring_fail_frac" "ratio" ring_fail_frac;
      m "chord.false_faulty_rows" "rows" (float_of_int r.false_faulty);
      m "span.run_for_self_ms" "ms" (self "run_for");
      m "span.lookup_issue_self_ms" "ms" (self "lookup_issue");
      m "span.install_self_ms" "ms" (self "install");
      m "span.replay_load_self_ms" "ms" (self "replay_load");
      m "span.seglog_iter_self_ms" "ms" (self "seglog_iter");
      m "span.wire_self_ms" "ms" (self "wire.encode" +. self "wire.decode");
      m "span.store_self_ms" "ms" (self "store.insert" +. self "store.probe");
      m "span.sim_rate" "node-vs/s" sim_rate;
    ]
  in
  (* Report. *)
  Printf.printf
    "meta {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \"pool_workers\": %d, \
     \"ocaml\": %S, \"nodes\": %d, \"shards\": %d, \"setup_vs\": %g, \"window_vs\": %g, \
     \"slices\": %d, \"slice_vs\": %g, \"lookup_rate_per_vs\": %g, \"lookups\": %d}\n"
    w.name seed (Bool.to_int trace) (Domain.recommended_domain_count ())
    (P2_runtime.Pool.size ()) Sys.ocaml_version w.nodes w.shards w.window_at window_vs n_slices
    slice_vs lookup_rate r.attempted;
  print_table
    (Printf.sprintf "end-to-end (%s, seed %d; lookups and latency in virtual time)" w.name seed)
    (e2e @ visible);
  if trace then begin
    print_layers per_layer;
    Printf.printf "spans (count, total ms, self ms)\n";
    List.iter
      (fun (name, (n, total, self)) ->
        Printf.printf "  %-24s %8d %12.3f %12.3f\n" name n (1000. *. total) (1000. *. self))
      spans;
    Printf.printf
      "span overhead: span.sim_rate %.1f node-vs/s against sim_rate of --trace 0 runs of \
       the same seeds (NOTES.md)\n"
      sim_rate;
    mkdir_p "_perfbench";
    let path =
      Filename.concat "_perfbench" (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed)
    in
    Spans.write path;
    Printf.printf "spans written to %s\n" path
  end;
  List.iter (fun g -> Printf.printf "GATE FAILED: %s\n" g) gates;
  print_result ~correct:(gates = []) ~attempted:r.attempted ~failed:r.failed
    (if trace then per_layer else e2e);
  if gates = [] then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let names = List.map (fun w -> w.name) workloads in
  Arg.parse
    [
      ("--workload", Arg.Symbol (names, fun s -> workload := s), " workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the ring and the lookup stream");
      ("--seconds", Arg.Set_float seconds, "S wall seconds the window measures (at least)");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report the per-layer table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | Some w when !trace = 0 || !trace = 1 ->
      exit (run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
  | _ ->
      prerr_endline usage;
      exit 2
