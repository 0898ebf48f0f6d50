(** Per-node metric accounting: deterministic work units standing in
    for CPU time, message/byte counters, and the memory proxy computed
    from a live-state census. See DESIGN.md §3 for the calibration
    against the paper's testbed. *)

type t

val create : unit -> t

(** Work-unit costs (notional microseconds) charged by the runtime. *)
module Cost : sig
  val element : float
  val table_lookup : float
  val table_insert : float
  val timer : float
  val marshal : float
  val tracer_tap : float
  val eval : float
end

(** Work units one node absorbs per second at 100% utilization. *)
val budget_units_per_second : float

val charge : t -> float -> unit
val message_tx : t -> bytes:int -> unit

(** Count one received message; [bytes] is the wire size when the
    caller knows it (it defaults to 0 for callers without the frame). *)
val message_rx : ?bytes:int -> t -> unit
val tuple_created : t -> unit
val rule_executed : t -> unit

(** CPU utilization proxy for [work] units spent over [seconds]. *)
val cpu_percent : work:float -> seconds:float -> float

(** Memory proxy in MB: process baseline + live tuple footprint. *)
val memory_mb : live_tuples:int -> live_bytes:int -> float

val work : t -> float
val messages_tx : t -> int
val messages_rx : t -> int
val bytes_tx : t -> int
val bytes_rx : t -> int
val tuples_created : t -> int
val rule_executions : t -> int

val mean : float list -> float
val stddev : float list -> float
