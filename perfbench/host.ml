(** Host-speed correction. The benchmark shares its machine with other
    tenants, and their load changes how fast this process runs by up to
    2x within a minute, far more than the changes the benchmark must
    resolve. So every timed stretch is bracketed by a fixed reference
    computation, and its wall time is rescaled by how much slower than
    [nominal_s] the reference ran next to it: the corrected time is what
    the stretch would have taken on the host at its nominal speed.

    The reference is stdlib code the program does not use: hash-table
    replaces of freshly allocated lists. It allocates and chases
    pointers like the engine does, which is what tracked the engine's
    slowdowns best on the defining host: corrected 10-second windows
    spread 4-6% against 15-23% uncorrected, where a cache-resident or a
    DRAM-bound loop only got them to 15%. A minor collection runs
    (untimed) before each reference, so the reference starts on an
    empty minor heap and its time does not depend on what the measured
    code left there. Its allocations and minor collections, the forced
    one included, are counted in [words] and [minor_gcs], so the
    window's allocation figures can leave them out. *)

let steps = 20_000

(** The reference's duration at the host's nominal speed: about the
    fastest it ran on the host the benchmark was defined on (2 vCPUs of
    an Intel Xeon at 2.1 GHz). A constant, so corrected times compare
    across runs and commits; it only sets their scale. *)
let nominal_s = 0.0025

let reference () =
  let h = Hashtbl.create 1024 in
  for i = 1 to steps do
    Hashtbl.replace h (i land 0x3fff) (Some [ i; i + 1 ])
  done;
  ignore (Sys.opaque_identity h)

let words = ref 0.
let minor_gcs = ref 0

(** Wall seconds of one reference run. *)
let sample () =
  let g0 = (Gc.quick_stat ()).minor_collections in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  reference ();
  let dt = Unix.gettimeofday () -. t0 in
  words := !words +. (Gc.minor_words () -. w0);
  minor_gcs := !minor_gcs + (Gc.quick_stat ()).minor_collections - g0;
  dt

(** Host speed between two reference samples: 1.0 at nominal speed,
    below 1 when the host is slower. *)
let speed r0 r1 = nominal_s /. ((r0 +. r1) /. 2.)

(** Run [f] bracketed by reference samples: its result and its
    corrected seconds. *)
let timed f =
  let r0 = sample () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall = Unix.gettimeofday () -. t0 in
  (x, wall *. speed r0 (sample ()))

(** A stopwatch over a run of timed stretches: [add] records one
    stretch's wall seconds, [checkpoint] samples the reference and
    converts the stretches since the previous checkpoint at the host
    speed measured around them. *)
type watch = {
  mutable last : float;  (** the previous reference sample *)
  mutable pending : float list;  (** wall seconds, newest first *)
  mutable corrected : float list;  (** corrected seconds, newest first *)
  mutable speeds : float list;
  mutable wall : float;  (** total wall seconds added *)
}

let watch () = { last = sample (); pending = []; corrected = []; speeds = []; wall = 0. }

let add w dt =
  w.pending <- dt :: w.pending;
  w.wall <- w.wall +. dt

let checkpoint w =
  if w.pending <> [] then begin
    let r = sample () in
    let s = speed w.last r in
    w.corrected <- List.map (fun dt -> dt *. s) w.pending @ w.corrected;
    w.speeds <- s :: w.speeds;
    w.pending <- [];
    w.last <- r
  end

(** Corrected seconds of every stretch, oldest first (after a final
    checkpoint). *)
let corrected w =
  checkpoint w;
  List.rev w.corrected
