(** Append-only binary segment log for trace records — the on-disk
    half of the flight recorder (docs/FORENSICS.md).

    A log is a directory of fixed-size segment files named
    [seg-NNNNNNNN.p2sl]. Each segment starts with a CRC'd header
    (magic, format version, base stamp/sequence, last stamp, record
    count) followed by length-prefixed records: every record carries
    its own CRC-32, the node-local timestamp it was appended at, and a
    {!Overlog.Wire}-encoded tuple frame, so external tools can parse
    segments with nothing but this spec and the wire codec.

    Writers buffer appends in memory and hit the disk only on
    {!flush} — the engine calls it single-threaded at tick barriers,
    which is what keeps sharded runs deterministic (DESIGN.md §15) —
    or when the buffer crosses a high-water mark. Segments seal and
    rotate at a configurable size; retention drops the oldest sealed
    segments by count or age. Opening a writer over an existing log
    recovers from crashes: a torn tail record is truncated and the
    interrupted segment is sealed in place. *)

open Overlog

(** Writer tuning. *)
type config = {
  segment_bytes : int;
      (** seal the current segment and rotate once it reaches this
          many bytes (checked between records at flush time) *)
  retain_segments : int option;
      (** keep at most this many sealed segments; the oldest are
          deleted at rotation ([None]: unbounded) *)
  retain_age : float option;
      (** delete sealed segments whose newest record is older than
          this many seconds of node-local time ([None]: unbounded) *)
  buffer_bytes : int;
      (** flush automatically once this many bytes are buffered, so
          memory stays bounded even between barriers *)
}

(** 4 MiB segments, unbounded retention, 256 KiB write buffer. *)
val default_config : config

(** {1 Writing} *)

type writer

(** Open (or re-open) the log directory, creating it if needed.
    Recovery runs here: every unsealed segment is scanned, a torn
    tail record is truncated off, and the segment is sealed with its
    recovered record count; appending then continues in a fresh
    segment with the next record sequence number. *)
val create : ?config:config -> dir:string -> unit -> writer

(** Buffer one record. [stamp] is the node-local time of the
    observation; [delete] is carried in the wire frame. Flushes
    implicitly past [buffer_bytes]. Raises [Invalid_argument] on a
    closed writer. *)
val append : writer -> stamp:float -> delete:bool -> Tuple.t -> unit

(** Write all buffered records to the current segment (rotating and
    applying retention as size demands) and sync the channel. *)
val flush : writer -> unit

(** Flush, seal the current segment, and release the file handle. An
    empty current segment is deleted rather than sealed. *)
val close : writer -> unit

val dir : writer -> string

(** Cumulative writer counters (the [trace.log.*] metrics). *)
type stats = {
  segments_sealed : int;  (** segments sealed (rotation + close) *)
  records_written : int;  (** records flushed to disk *)
  bytes_written : int;  (** framed record bytes flushed to disk *)
  flush_ns : int;  (** cumulative wall time spent inside {!flush} *)
  retention_drops : int;  (** sealed segments deleted by retention *)
  buffered_records : int;  (** records waiting for the next flush *)
  buffered_bytes : int;  (** bytes waiting for the next flush *)
}

val stats : writer -> stats

(** {1 Reading} *)

(** One decoded record. [seq] is the log-wide append sequence number
    (segment base sequence + offset in the segment). *)
type record = { stamp : float; seq : int; delete : bool; tuple : Tuple.t }

(** Stream records of one log directory in append order, restricted
    to [from_ <= stamp <= to_] (defaults: unbounded). Sealed segments
    wholly outside the window are skipped without being read past
    their headers; records with CRC damage are skipped; a torn tail
    ends the segment. Safe on a log that is still being written. *)
val iter : ?from_:float -> ?to_:float -> dir:string -> (record -> unit) -> unit

(** Per-segment inventory, as reported by [p2ql logctl]. *)
type segment = {
  path : string;
  header_ok : bool;  (** magic, version and header CRC all check out *)
  sealed : bool;  (** header carries a final record count *)
  base_stamp : float;  (** stamp of the first record (nan if none) *)
  base_seq : int;  (** log-wide sequence of the first record *)
  last_stamp : float;  (** stamp of the newest record (nan if none) *)
  records : int;  (** CRC-good records found by scanning *)
  declared : int option;  (** header record count, sealed segments only *)
  bytes : int;  (** file size *)
  torn : bool;  (** scan hit an incomplete tail record *)
  bad_records : int;  (** records skipped for CRC mismatch *)
}

(** Inventory of every segment in the directory, in log order. *)
val segments : dir:string -> segment list

(** A segment is intact: readable header, no torn tail, no CRC-bad
    records, and (when sealed) the scanned count matches the header. *)
val intact : segment -> bool

(** CRC-32 (IEEE 802.3, reflected) of a string — the checksum used by
    both the segment header and record framing; exposed so tests and
    external parsers can cross-check. *)
val crc32 : string -> int

(** {1 File helpers}

    The numbered-file layer shared with {!Checkpoint}. *)

(** [prefix ^ "%08d" ^ suffix]: the name of file [ix] in a series. *)
val numbered_name : prefix:string -> suffix:string -> int -> string

(** (index, path) of every file in [dir] named by {!numbered_name}
    with this prefix and suffix, in index order; [] for a missing
    directory. *)
val numbered_files : prefix:string -> suffix:string -> string -> (int * string) list

(** Create a directory and its missing parents. *)
val mkdir_p : string -> unit

(** Unsigned little-endian 32-bit integer at a byte offset. *)
val u32_at : string -> int -> int

(** A whole file's bytes, or the system error message. *)
val read_file : string -> (string, string) result
