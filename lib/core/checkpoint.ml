(** Durable table checkpoints (see checkpoint.mli for the on-disk
    format contract). *)

open Overlog

(* --- Framing constants ---------------------------------------------

   Snapshot header (41 bytes, little-endian):
     0   "P2CK"                magic
     4   u8   format version   (1)
     5   f64  stamp            (virtual time of the snapshot)
     13  u64  snapshot index
     21  u32  table count
     25  u32  total row count
     29  u32  body length
     33  u32  CRC-32 of the body
     37  u32  CRC-32 of bytes [0,37)

   Body, one section per table:
     u16  name length | name | u32 row count
     then per row: u32 frame length | Wire data frame (Wire.encode) *)

let magic = "P2CK"
let format_version = 1
let header_len = 41

(* Length sanity bound while decoding: a frame longer than this means
   the length prefix itself is damaged. *)
let max_frame_len = 1 lsl 24

let crc32 = Seglog.crc32

type config = { interval : float; retain : int option }

let default_config = { interval = 10.; retain = Some 3 }

(* --- Directory layout ---------------------------------------------- *)

let file_name = Seglog.numbered_name ~prefix:"ckpt-" ~suffix:".p2ck"
let files ~dir = Seglog.numbered_files ~prefix:"ckpt-" ~suffix:".p2ck" dir

(* --- Writer -------------------------------------------------------- *)

type stats = {
  snapshots : int;
  rows : int;
  bytes : int;
  write_ns : int;
  retention_drops : int;
  last_stamp : float;
}

type writer = {
  w_dir : string;
  config : config;
  mutable next_index : int;
  mutable closed : bool;
  mutable snapshots : int;
  mutable rows_written : int;
  mutable bytes_written : int;
  mutable write_ns : int;
  mutable retention_drops : int;
  mutable last_stamp : float;
}

let create ?(config = default_config) ~dir () =
  Seglog.mkdir_p dir;
  let next_index =
    match List.rev (files ~dir) with (ix, _) :: _ -> ix + 1 | [] -> 0
  in
  {
    w_dir = dir;
    config;
    next_index;
    closed = false;
    snapshots = 0;
    rows_written = 0;
    bytes_written = 0;
    write_ns = 0;
    retention_drops = 0;
    last_stamp = Float.nan;
  }

let dir w = w.w_dir

let stats w =
  {
    snapshots = w.snapshots;
    rows = w.rows_written;
    bytes = w.bytes_written;
    write_ns = w.write_ns;
    retention_drops = w.retention_drops;
    last_stamp = w.last_stamp;
  }

let encode_header ~stamp ~index ~tables ~rows ~body =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Buffer.add_uint8 b format_version;
  Buffer.add_int64_le b (Int64.bits_of_float stamp);
  Buffer.add_int64_le b (Int64.of_int index);
  Buffer.add_int32_le b (Int32.of_int tables);
  Buffer.add_int32_le b (Int32.of_int rows);
  Buffer.add_int32_le b (Int32.of_int (String.length body));
  Buffer.add_int32_le b (Int32.of_int (crc32 body));
  let prefix = Buffer.contents b in
  Buffer.add_int32_le b (Int32.of_int (crc32 prefix));
  Buffer.contents b

let encode_body tables =
  let b = Buffer.create 4096 in
  let rows = ref 0 in
  List.iter
    (fun (name, tuples) ->
      Buffer.add_uint16_le b (String.length name);
      Buffer.add_string b name;
      Buffer.add_int32_le b (Int32.of_int (List.length tuples));
      List.iter
        (fun tuple ->
          incr rows;
          (* Tuple ids reflect allocation order, which varies across
             shard counts; snapshots carry none so seeded runs are
             byte-identical however they were executed (restores mint
             fresh ids anyway). *)
          let frame = Wire.encode (Tuple.with_id tuple 0) in
          Buffer.add_int32_le b (Int32.of_int (String.length frame));
          Buffer.add_string b frame)
        tuples)
    tables;
  (Buffer.contents b, !rows)

let apply_retention w =
  match w.config.retain with
  | None -> ()
  | Some keep ->
      let all = files ~dir:w.w_dir in
      let excess = List.length all - keep in
      if excess > 0 then
        List.iteri
          (fun i (_, path) ->
            if i < excess then begin
              (try Sys.remove path with Sys_error _ -> ());
              w.retention_drops <- w.retention_drops + 1
            end)
          all

let write w ~stamp ~tables =
  if w.closed then invalid_arg "Checkpoint.write: closed writer";
  let t0 = Unix.gettimeofday () in
  let index = w.next_index in
  let body, rows = encode_body tables in
  let header =
    encode_header ~stamp ~index ~tables:(List.length tables) ~rows ~body
  in
  let path = Filename.concat w.w_dir (file_name index) in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc header;
  output_string oc body;
  close_out oc;
  (* The rename is the commit point: readers either see the previous
     set of snapshots or the complete new one, never a torn file. *)
  Sys.rename tmp path;
  w.next_index <- index + 1;
  w.snapshots <- w.snapshots + 1;
  w.rows_written <- w.rows_written + rows;
  w.bytes_written <- w.bytes_written + String.length header + String.length body;
  w.last_stamp <- stamp;
  apply_retention w;
  w.write_ns <- w.write_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
  path

let close w = w.closed <- true

(* --- Reader -------------------------------------------------------- *)

type table = { name : string; rows : Wire.message list }

type snapshot = { path : string; index : int; stamp : float; tables : table list }

let u16_at s off = String.get_uint16_le s off
let u32_at = Seglog.u32_at

type header = {
  h_stamp : float;
  h_index : int;
  h_tables : int;
  h_rows : int;
  h_body_len : int;
  h_body_crc : int;
}

let decode_header s =
  if String.length s < header_len then Error "file shorter than header"
  else if String.sub s 0 4 <> magic then Error "bad magic"
  else if Char.code s.[4] <> format_version then
    Error (Fmt.str "unsupported version %d" (Char.code s.[4]))
  else if u32_at s 37 <> crc32 (String.sub s 0 37) then Error "header CRC mismatch"
  else
    Ok
      {
        h_stamp = Int64.float_of_bits (String.get_int64_le s 5);
        h_index = Int64.to_int (String.get_int64_le s 13);
        h_tables = u32_at s 21;
        h_rows = u32_at s 25;
        h_body_len = u32_at s 29;
        h_body_crc = u32_at s 33;
      }

let decode_body ~tables body =
  let len = String.length body in
  let pos = ref 0 in
  let fail fmt = Fmt.kstr (fun m -> raise (Wire.Error m)) fmt in
  let need n what = if !pos + n > len then fail "truncated %s" what in
  let out = ref [] in
  for _ = 1 to tables do
    need 2 "table name length";
    let nlen = u16_at body !pos in
    pos := !pos + 2;
    need nlen "table name";
    let name = String.sub body !pos nlen in
    pos := !pos + nlen;
    need 4 "row count";
    let count = u32_at body !pos in
    pos := !pos + 4;
    let rows = ref [] in
    for _ = 1 to count do
      need 4 "row length";
      let flen = u32_at body !pos in
      pos := !pos + 4;
      if flen > max_frame_len then fail "row frame length %d out of range" flen;
      need flen "row frame";
      let frame = String.sub body !pos flen in
      pos := !pos + flen;
      match (Wire.decode frame).kind with
      | Wire.Data m -> rows := m :: !rows
      | _ -> fail "row frame is not a data frame"
    done;
    out := { name; rows = List.rev !rows } :: !out
  done;
  if !pos <> len then fail "trailing bytes after last table";
  List.rev !out

let read path =
  match Seglog.read_file path with
  | Error e -> Error e
  | Ok s -> (
      match decode_header s with
      | Error e -> Error e
      | Ok h ->
          if String.length s - header_len <> h.h_body_len then
            Error
              (Fmt.str "body length %d does not match header %d"
                 (String.length s - header_len)
                 h.h_body_len)
          else
            let body = String.sub s header_len h.h_body_len in
            if crc32 body <> h.h_body_crc then Error "body CRC mismatch"
            else (
              match decode_body ~tables:h.h_tables body with
              | exception Wire.Error e -> Error e
              | tables ->
                  let rows =
                    List.fold_left (fun acc t -> acc + List.length t.rows) 0 tables
                  in
                  if rows <> h.h_rows then
                    Error (Fmt.str "row count %d does not match header %d" rows h.h_rows)
                  else Ok { path; index = h.h_index; stamp = h.h_stamp; tables }))

let latest ~dir =
  let rec scan = function
    | [] -> None
    | (_, path) :: older -> (
        match read path with Ok s -> Some s | Error _ -> scan older)
  in
  scan (List.rev (files ~dir))

(* --- Inventory ------------------------------------------------------ *)

type info = {
  i_path : string;
  i_index : int;
  i_ok : bool;
  i_error : string option;
  i_stamp : float;
  i_tables : int;
  i_rows : int;
  i_bytes : int;
}

let inventory ~dir =
  List.map
    (fun (ix, path) ->
      let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
      match read path with
      | Ok s ->
          {
            i_path = path;
            i_index = ix;
            i_ok = true;
            i_error = None;
            i_stamp = s.stamp;
            i_tables = List.length s.tables;
            i_rows =
              List.fold_left (fun acc t -> acc + List.length t.rows) 0 s.tables;
            i_bytes = bytes;
          }
      | Error e ->
          let stamp =
            match Seglog.read_file path with
            | Ok s when String.length s >= 13 && String.sub s 0 4 = magic ->
                Int64.float_of_bits (String.get_int64_le s 5)
            | _ -> Float.nan
          in
          {
            i_path = path;
            i_index = ix;
            i_ok = false;
            i_error = Some e;
            i_stamp = stamp;
            i_tables = 0;
            i_rows = 0;
            i_bytes = bytes;
          })
    (files ~dir)
