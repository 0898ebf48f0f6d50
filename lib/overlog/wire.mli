(** Binary wire format for transport frames (little-endian,
    length-prefixed). Version 2: every frame carries a kind, a channel
    sequence number, and a cumulative acknowledgement; version-1 input
    is rejected with a clean {!Error}. *)

exception Error of string

val version : int

(** Encode a tuple as a data frame; [delete] marks delete patterns.
    The tuple's id travels as the source-tuple id for cross-node
    tracing (paper §2.1.3); [seq] / [ack] are the transport header
    (default 0 for unsequenced sends). Raises {!Error} on unencodable
    input (strings over 64 KiB, more than 65535 fields). *)
val encode : ?delete:bool -> ?seq:int -> ?ack:int -> Tuple.t -> string

(** {!encode}, appending the frame to a buffer. *)
val encode_into : Buffer.t -> ?delete:bool -> ?seq:int -> ?ack:int -> Tuple.t -> unit

(** Encode a list of [(delete, tuple)] shipments as one delta-batch
    frame (kind 3) that occupies a single sequence number; the receiver
    delivers the items in list order. Raises {!Error} on more than
    65535 items. *)
val encode_batch : ?seq:int -> ?ack:int -> (bool * Tuple.t) list -> string

(** Standalone cumulative-acknowledgement frame. *)
val encode_ack : ack:int -> string

(** Liveness probe; the receiver answers with an ack frame. *)
val encode_heartbeat : ack:int -> string

type message = {
  src_tuple_id : int;
  delete : bool;
  name : string;
  fields : Value.t array;
}

type kind = Data of message | Batch of message list | Ack | Heartbeat

type frame = { seq : int; ack : int; kind : kind }

(** Decode a wire frame; raises {!Error} on malformed input, including
    trailing bytes, unknown kinds, and the pre-transport version-1
    layout. *)
val decode : string -> frame

(** Wire size in bytes of a tuple's data-frame encoding, computed
    without encoding; raises {!Error} where {!encode} would. The delete
    flag does not change the size. *)
val size : ?delete:bool -> Tuple.t -> int
