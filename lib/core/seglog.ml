(** Append-only binary segment log for trace records (see
    seglog.mli and docs/FORENSICS.md for the on-disk format spec). *)

open Overlog

(* --- Framing constants ---------------------------------------------

   Segment header (37 bytes, little-endian):
     0   "P2SL"                magic
     4   u8   format version   (1)
     5   f64  base stamp       (first record's stamp; nan while open)
     13  u64  base seq         (log-wide seq of the first record)
     21  f64  last stamp       (newest record's stamp; nan while open)
     29  u32  record count     (0xFFFFFFFF while open)
     33  u32  CRC-32 of bytes [0,33)

   Record:
     u32  payload length
     u32  CRC-32 of the payload
     payload = f64 stamp | Wire data frame (Wire.encode) *)

let magic = "P2SL"
let format_version = 1
let header_len = 37
let count_sentinel = 0xFFFFFFFF

(* Length sanity bound during scans: a frame longer than this means
   the length prefix itself is damaged, so treat the tail as torn. *)
let max_record_len = 1 lsl 24

(* --- CRC-32 (IEEE 802.3, reflected), table-driven ------------------ *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* CRC-32 of [len] bytes of [b] from [off]. *)
let crc32_bytes b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

(* --- Config -------------------------------------------------------- *)

type config = {
  segment_bytes : int;
  retain_segments : int option;
  retain_age : float option;
  buffer_bytes : int;
}

let default_config =
  {
    segment_bytes = 4 * 1024 * 1024;
    retain_segments = None;
    retain_age = None;
    buffer_bytes = 256 * 1024;
  }

(* --- File helpers (shared with Checkpoint) ------------------------- *)

let numbered_name ~prefix ~suffix ix = Fmt.str "%s%08d%s" prefix ix suffix

let numbered_files ~prefix ~suffix dir =
  let index name =
    let p = String.length prefix in
    if
      String.length name = p + 8 + String.length suffix
      && String.starts_with ~prefix name
      && String.ends_with ~suffix name
    then int_of_string_opt (String.sub name p 8)
    else None
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun n ->
             Option.map (fun ix -> (ix, Filename.concat dir n)) (index n))
      |> List.sort compare

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let u32_at s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

(* --- Directory layout ---------------------------------------------- *)

let seg_name = numbered_name ~prefix:"seg-" ~suffix:".p2sl"

(* (index, path) for every segment file, in log order. *)
let seg_files = numbered_files ~prefix:"seg-" ~suffix:".p2sl"

(* Segment contents; an unreadable file reads as empty (no header). *)
let contents path = Result.value (read_file path) ~default:""

(* --- Header codec -------------------------------------------------- *)

let encode_header ~base_stamp ~base_seq ~last_stamp ~count =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Buffer.add_uint8 b format_version;
  Buffer.add_int64_le b (Int64.bits_of_float base_stamp);
  Buffer.add_int64_le b (Int64.of_int base_seq);
  Buffer.add_int64_le b (Int64.bits_of_float last_stamp);
  Buffer.add_int32_le b (Int32.of_int count);
  let body = Buffer.contents b in
  Buffer.add_int32_le b (Int32.of_int (crc32 body));
  Buffer.contents b

type header = {
  h_base_stamp : float;
  h_base_seq : int;
  h_last_stamp : float;
  h_count : int;
}

let decode_header s =
  if
    String.length s >= header_len
    && String.sub s 0 4 = magic
    && Char.code s.[4] = format_version
    && u32_at s 33 = crc32 (String.sub s 0 33)
  then
    Some
      {
        h_base_stamp = Int64.float_of_bits (String.get_int64_le s 5);
        h_base_seq = Int64.to_int (String.get_int64_le s 13);
        h_last_stamp = Int64.float_of_bits (String.get_int64_le s 21);
        h_count = u32_at s 29;
      }
  else None

(* --- Record framing ------------------------------------------------ *)

(* Encode the record once: a placeholder length and CRC, the payload,
   then both patched in over the finished bytes. *)
let frame_record ~stamp ~delete tuple =
  let buf = Buffer.create 96 in
  Buffer.add_int64_le buf 0L;
  Buffer.add_int64_le buf (Int64.bits_of_float stamp);
  Wire.encode_into buf ~delete tuple;
  let b = Buffer.to_bytes buf in
  let plen = Bytes.length b - 8 in
  Bytes.set_int32_le b 0 (Int32.of_int plen);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32_bytes b 8 plen));
  Bytes.unsafe_to_string b

(* Visit every CRC-good record payload in a segment image; returns
   (good count, end offset of the last complete record, torn?, CRC-bad
   count). CRC-bad records with intact framing are skipped and the
   scan continues; incomplete framing at the tail stops it. *)
let scan_payloads s visit =
  let len = String.length s in
  let rec go off good bad =
    if off + 8 > len then (good, off, off < len, bad)
    else
      let plen = u32_at s off in
      let crc = u32_at s (off + 4) in
      if plen = 0 || plen > max_record_len || off + 8 + plen > len then
        (good, off, true, bad)
      else
        let payload = String.sub s (off + 8) plen in
        if crc32 payload <> crc then go (off + 8 + plen) good (bad + 1)
        else begin
          visit payload;
          go (off + 8 + plen) (good + 1) bad
        end
  in
  go header_len 0 0

let payload_stamp payload =
  if String.length payload >= 8 then
    Some (Int64.float_of_bits (String.get_int64_le payload 0))
  else None

let decode_payload payload =
  match payload_stamp payload with
  | None -> None
  | Some stamp -> (
      let frame = String.sub payload 8 (String.length payload - 8) in
      match Wire.decode frame with
      | { Wire.kind = Wire.Data m; _ } ->
          Some
            ( stamp,
              m.Wire.delete,
              Tuple.make_arr ~id:m.Wire.src_tuple_id m.Wire.name m.Wire.fields )
      | _ -> None
      | exception Wire.Error _ -> None)

(* --- Writer -------------------------------------------------------- *)

type stats = {
  segments_sealed : int;
  records_written : int;
  bytes_written : int;
  flush_ns : int;
  retention_drops : int;
  buffered_records : int;
  buffered_bytes : int;
}

type writer = {
  config : config;
  w_dir : string;
  mutable chan : out_channel;
  mutable cur_path : string;
  mutable cur_index : int;
  mutable cur_base_seq : int;
  mutable cur_first_stamp : float;  (* nan until the first record *)
  mutable cur_last_stamp : float;
  mutable cur_records : int;
  mutable cur_bytes : int;  (* file bytes including the header *)
  mutable pending : (float * string) list;  (* newest first *)
  mutable pending_records : int;
  mutable pending_bytes : int;
  mutable next_seq : int;  (* log-wide seq of the next append *)
  mutable closed : bool;
  mutable segments_sealed : int;
  mutable records_written : int;
  mutable bytes_written : int;
  mutable flush_ns : int;
  mutable retention_drops : int;
}

let dir w = w.w_dir

let stats w =
  {
    segments_sealed = w.segments_sealed;
    records_written = w.records_written;
    bytes_written = w.bytes_written;
    flush_ns = w.flush_ns;
    retention_drops = w.retention_drops;
    buffered_records = w.pending_records;
    buffered_bytes = w.pending_bytes;
  }

(* Patch a header in place through a raw fd (also used by recovery,
   which may need to truncate a torn tail with the same handle). *)
let rewrite_header ?truncate_at path header =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Option.iter (Unix.ftruncate fd) truncate_at;
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let b = Bytes.of_string header in
      let n = Unix.write fd b 0 (Bytes.length b) in
      if n <> Bytes.length b then failwith "Seglog: short header write")

let open_segment w =
  let path = Filename.concat w.w_dir (seg_name w.cur_index) in
  let chan = open_out_bin path in
  output_string chan
    (encode_header ~base_stamp:Float.nan ~base_seq:w.next_seq
       ~last_stamp:Float.nan ~count:count_sentinel);
  Stdlib.flush chan;
  w.chan <- chan;
  w.cur_path <- path;
  w.cur_base_seq <- w.next_seq;
  w.cur_first_stamp <- Float.nan;
  w.cur_last_stamp <- Float.nan;
  w.cur_records <- 0;
  w.cur_bytes <- header_len

(* Seal the current segment: patch the header with the real stamps and
   count. An empty segment is deleted instead. *)
let seal_current w =
  Stdlib.flush w.chan;
  close_out w.chan;
  if w.cur_records = 0 then Sys.remove w.cur_path
  else begin
    rewrite_header w.cur_path
      (encode_header ~base_stamp:w.cur_first_stamp ~base_seq:w.cur_base_seq
         ~last_stamp:w.cur_last_stamp ~count:w.cur_records);
    w.segments_sealed <- w.segments_sealed + 1
  end

(* Read just the header of a sealed segment (37 bytes). *)
let read_header path =
  match
    In_channel.with_open_bin path (fun ic ->
        really_input_string ic header_len)
  with
  | s -> decode_header s
  | exception (Sys_error _ | End_of_file) -> None

(* Drop sealed segments beyond the count / age horizons. [now_stamp]
   is the node-local stamp of the newest record (ages are measured on
   the recorded clock, not wall time). *)
let apply_retention w ~now_stamp =
  let drop path =
    (try Sys.remove path with Sys_error _ -> ());
    w.retention_drops <- w.retention_drops + 1
  in
  let sealed () =
    List.filter (fun (ix, _) -> ix <> w.cur_index) (seg_files w.w_dir)
  in
  (match w.config.retain_segments with
  | Some n when n >= 0 ->
      let s = sealed () in
      let excess = List.length s - n in
      if excess > 0 then
        List.iteri (fun i (_, path) -> if i < excess then drop path) s
  | _ -> ());
  match w.config.retain_age with
  | Some age ->
      List.iter
        (fun (_, path) ->
          match read_header path with
          | Some h when h.h_count <> count_sentinel ->
              if h.h_last_stamp < now_stamp -. age then drop path
          | _ -> ())
        (sealed ())
  | None -> ()

let roll w ~now_stamp =
  seal_current w;
  w.cur_index <- w.cur_index + 1;
  open_segment w;
  (* after the index advance, so the freshly sealed segment is part of
     the retention census *)
  apply_retention w ~now_stamp

let flush w =
  if w.pending <> [] then begin
    let t0 = Unix.gettimeofday () in
    let items = List.rev w.pending in
    w.pending <- [];
    w.pending_records <- 0;
    w.pending_bytes <- 0;
    List.iter
      (fun (stamp, framed) ->
        if w.cur_bytes >= w.config.segment_bytes && w.cur_records > 0 then
          roll w ~now_stamp:stamp;
        output_string w.chan framed;
        if w.cur_records = 0 then w.cur_first_stamp <- stamp;
        w.cur_last_stamp <- stamp;
        (* seq advances as records reach the segment, not as they are
           buffered — rolling mid-flush must hand the new segment the
           seq of the next record it will actually hold *)
        w.next_seq <- w.next_seq + 1;
        w.cur_records <- w.cur_records + 1;
        w.cur_bytes <- w.cur_bytes + String.length framed;
        w.records_written <- w.records_written + 1;
        w.bytes_written <- w.bytes_written + String.length framed)
      items;
    Stdlib.flush w.chan;
    w.flush_ns <- w.flush_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  end

let append w ~stamp ~delete tuple =
  if w.closed then invalid_arg "Seglog.append: writer is closed";
  let framed = frame_record ~stamp ~delete tuple in
  w.pending <- (stamp, framed) :: w.pending;
  w.pending_records <- w.pending_records + 1;
  w.pending_bytes <- w.pending_bytes + String.length framed;
  if w.pending_bytes >= w.config.buffer_bytes then flush w

let close w =
  if not w.closed then begin
    flush w;
    seal_current w;
    w.closed <- true
  end

(* Crash recovery for one unsealed (or torn) segment: scan, truncate
   the torn tail, and seal in place with the recovered stamps/count.
   Returns the seq one past the segment's last record, or [None] when
   the header itself is unreadable (the file is left untouched). *)
let recover_segment path =
  let contents = contents path in
  match decode_header contents with
  | None -> None
  | Some h ->
      let first = ref Float.nan and last = ref Float.nan in
      let count, end_off, torn, _bad =
        scan_payloads contents (fun payload ->
            match payload_stamp payload with
            | Some st ->
                if Float.is_nan !first then first := st;
                last := st
            | None -> ())
      in
      if count = 0 then begin
        Sys.remove path;
        Some h.h_base_seq
      end
      else begin
        if torn || h.h_count = count_sentinel then
          rewrite_header path
            ?truncate_at:(if torn then Some end_off else None)
            (encode_header ~base_stamp:!first ~base_seq:h.h_base_seq
               ~last_stamp:!last ~count);
        Some (h.h_base_seq + count)
      end

let create ?(config = default_config) ~dir () =
  mkdir_p dir;
  (* Recover every unsealed segment (normally just the last one a
     crash left behind); sealed headers are trusted for the sequence
     handoff without rescanning their records. *)
  let next_index, next_seq =
    List.fold_left
      (fun (next_ix, next_seq) (ix, path) ->
        let seg_next =
          match read_header path with
          | Some h when h.h_count <> count_sentinel ->
              Some (h.h_base_seq + h.h_count)
          | Some _ -> recover_segment path
          | None -> None
        in
        (max next_ix (ix + 1), max next_seq (Option.value seg_next ~default:0)))
      (1, 0) (seg_files dir)
  in
  let w =
    {
      config;
      w_dir = dir;
      chan = stdout;  (* replaced by open_segment below *)
      cur_path = "";
      cur_index = next_index;
      cur_base_seq = next_seq;
      cur_first_stamp = Float.nan;
      cur_last_stamp = Float.nan;
      cur_records = 0;
      cur_bytes = 0;
      pending = [];
      pending_records = 0;
      pending_bytes = 0;
      next_seq;
      closed = false;
      segments_sealed = 0;
      records_written = 0;
      bytes_written = 0;
      flush_ns = 0;
      retention_drops = 0;
    }
  in
  open_segment w;
  w

(* --- Reading ------------------------------------------------------- *)

type record = { stamp : float; seq : int; delete : bool; tuple : Tuple.t }

let iter ?(from_ = neg_infinity) ?(to_ = infinity) ~dir f =
  List.iter
    (fun (_, path) ->
      match read_header path with
      | None -> ()
      | Some h ->
          let sealed = h.h_count <> count_sentinel in
          (* Sealed segments wholly outside the window need only their
             headers. *)
          if not (sealed && (h.h_base_stamp > to_ || h.h_last_stamp < from_))
          then begin
            let contents = contents path in
            let seq = ref h.h_base_seq in
            ignore
              (scan_payloads contents (fun payload ->
                   let s = !seq in
                   incr seq;
                   match decode_payload payload with
                   | Some (stamp, delete, tuple)
                     when from_ <= stamp && stamp <= to_ ->
                       f { stamp; seq = s; delete; tuple }
                   | _ -> ()))
          end)
    (seg_files dir)

type segment = {
  path : string;
  header_ok : bool;
  sealed : bool;
  base_stamp : float;
  base_seq : int;
  last_stamp : float;
  records : int;
  declared : int option;
  bytes : int;
  torn : bool;
  bad_records : int;
}

let segments ~dir =
  List.map
    (fun (_, path) ->
      let contents = contents path in
      match decode_header contents with
      | None ->
          {
            path;
            header_ok = false;
            sealed = false;
            base_stamp = Float.nan;
            base_seq = -1;
            last_stamp = Float.nan;
            records = 0;
            declared = None;
            bytes = String.length contents;
            torn = true;
            bad_records = 0;
          }
      | Some h ->
          let first = ref Float.nan and last = ref Float.nan in
          let records, _end_off, torn, bad_records =
            scan_payloads contents (fun payload ->
                match payload_stamp payload with
                | Some st ->
                    if Float.is_nan !first then first := st;
                    last := st
                | None -> ())
          in
          let sealed = h.h_count <> count_sentinel in
          {
            path;
            header_ok = true;
            sealed;
            base_stamp = (if sealed then h.h_base_stamp else !first);
            base_seq = h.h_base_seq;
            last_stamp = (if sealed then h.h_last_stamp else !last);
            records;
            declared = (if sealed then Some h.h_count else None);
            bytes = String.length contents;
            torn;
            bad_records;
          })
    (seg_files dir)

let intact s =
  s.header_ok && (not s.torn) && s.bad_records = 0
  && match s.declared with None -> true | Some n -> n = s.records
