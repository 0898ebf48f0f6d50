(** OverLog tuples: a relation name plus a field vector.

    By P2 convention, field 1 is the location specifier — the address
    of the node where the tuple lives or must be delivered. Tuples are
    immutable; each carries a node-unique [id] used by the tracer to
    memoize tuples in the [tupleTable] (paper §2.1.3). *)

type t

(** The id of tuples created outside a node (tests, literals). *)
val anonymous_id : int

val make : ?id:int -> string -> Value.t list -> t
val make_arr : ?id:int -> string -> Value.t array -> t

val name : t -> string
val id : t -> int
val with_id : t -> int -> t
val arity : t -> int
val fields : t -> Value.t list

(** 1-indexed field access (matching the [keys(...)] convention).
    Raises [Invalid_argument] when out of range. *)
val field : t -> int -> Value.t

(** The location specifier (field 1) as an address. *)
val location : t -> string

(** Equality/ordering of contents, ignoring ids. *)
val equal_contents : t -> t -> bool

val compare_contents : t -> t -> int
val pp : t Fmt.t
val to_string : t -> string

(** Extract the values at the given 1-indexed positions; out-of-range
    positions yield [VNull]. *)
val key_of : t -> int list -> Value.t list

(** One position of {!key_of}: the 1-indexed field, or [VNull] when out
    of range. *)
val key_field : t -> int -> Value.t

val size_bytes : t -> int
