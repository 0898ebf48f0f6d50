(* Model-based checking of the store's secondary-index layer and
   incremental expiry: under randomized insert/replace/delete/evict/
   expire churn (random key specs, lifetimes, caps and probe
   patterns, mixed value kinds, clocks that stand still or go back),

   - [Table.probe] must be observably equivalent to naive
     scan-and-filter under [Value.equal], whether the index was created
     before the churn (incremental maintenance) or after it (lazy
     backfill);
   - primary-key identity must follow the reference canonical key text
     ([Ref_key]);
   - [Table.tuples] must stay in insertion order;
   - the delta-subscription firing sequence (kinds, payloads and
     subscriber order) must match the reference semantics exactly. *)

open Overlog
open Store

(* --- reference model ------------------------------------------------ *)

type mrow = {
  mutable mtuple : Tuple.t;
  mutable mat : float;  (* inserted/refreshed at *)
  mseq : int;
  mkey : string;
}

type model = {
  lifetime : float;
  cap : int option;
  keyspec : int list;
  mutable rows : mrow list;  (* insertion (seq) order *)
  mutable next : int;
  mutable log : (string * string) list;  (* (kind, tuple), reversed *)
}

let mkey m tuple =
  Ref_key.canon
    (match m.keyspec with
    | [] -> Tuple.fields tuple
    | ks -> Tuple.key_of tuple ks)

let mlog m kind tu = m.log <- (kind, Tuple.to_string tu) :: m.log

let mexpire m now =
  if m.lifetime <> infinity then begin
    let dead, live =
      List.partition (fun r -> now -. r.mat > m.lifetime) m.rows
    in
    let dead =
      List.sort (fun a b -> compare (a.mat, a.mseq) (b.mat, b.mseq)) dead
    in
    m.rows <- live;
    List.iter (fun r -> mlog m "del" r.mtuple) dead
  end

let minsert m now tuple =
  mexpire m now;
  let k = mkey m tuple in
  match List.find_opt (fun r -> r.mkey = k) m.rows with
  | Some r when Tuple.equal_contents r.mtuple tuple ->
      r.mat <- now;
      mlog m "ref" tuple
  | Some r ->
      r.mtuple <- tuple;
      r.mat <- now;
      mlog m "ins" tuple
  | None ->
      (match m.cap with
      | Some cap when List.length m.rows >= cap -> (
          let victim =
            List.fold_left
              (fun acc r ->
                match acc with
                | Some best when (best.mat, best.mseq) <= (r.mat, r.mseq) -> acc
                | _ -> Some r)
              None m.rows
          in
          match victim with
          | Some v ->
              m.rows <- List.filter (fun r -> r != v) m.rows;
              mlog m "del" v.mtuple
          | None -> ())
      | _ -> ());
      let seq = m.next in
      m.next <- m.next + 1;
      m.rows <- m.rows @ [ { mtuple = tuple; mat = now; mseq = seq; mkey = k } ];
      mlog m "ins" tuple

let mdelete m now tuple =
  mexpire m now;
  let k = mkey m tuple in
  match List.find_opt (fun r -> r.mkey = k) m.rows with
  | Some r ->
      m.rows <- List.filter (fun r' -> r' != r) m.rows;
      mlog m "del" r.mtuple
  | None -> ()

let mdelete_where m now pred =
  mexpire m now;
  let victims = List.filter (fun r -> pred r.mtuple) m.rows in
  m.rows <- List.filter (fun r -> not (pred r.mtuple)) m.rows;
  List.iter (fun r -> mlog m "del" r.mtuple) victims

let mtuples m now =
  mexpire m now;
  List.map (fun r -> Tuple.to_string r.mtuple) m.rows

(* naive scan-and-filter: the specification [Table.probe] must meet *)
let mprobe m now positions values =
  mexpire m now;
  List.filter_map
    (fun r ->
      if List.for_all2 Value.equal (Tuple.key_of r.mtuple positions) values then
        Some (Tuple.to_string r.mtuple)
      else None)
    m.rows

(* --- randomized operations ------------------------------------------ *)

(* Field values, drawn by index. Cross-kind pairs equal under
   [Value.equal] ([VInt]/[VId], [VStr]/[VAddr], [VInt]/[VFloat], the
   signed zeros), floats that print alike but differ ([0.3] and
   [0.1 +. 0.2]: one primary key, two probe keys), [VInt 0]/[VId 0]/
   [VFloat 0.] (equality is not transitive there), and lists. *)
let pool =
  Value.
    [|
      VInt 0; VId 0; VFloat 0.; VFloat (-0.); VInt 1; VId 1; VFloat 1.; VStr "a"; VAddr "a";
      VStr "b"; VFloat 0.3; VFloat (0.1 +. 0.2); VList [ VInt 1; VStr "a" ];
      VList [ VId 1; VAddr "a" ]; VList []; VBool true; VNull;
    |]

type op =
  | Insert of int * int
  | Delete of int * int
  | DeleteWhere of int  (* parity of the payload's printed length *)
  | Advance of float
  | Probe of int list * int * int

let probe_sets = [ [ 2 ]; [ 3 ]; [ 2; 3 ]; [ 1; 2 ] ]

let gen_config =
  QCheck.Gen.(
    triple
      (oneofl [ 2.; 5.; infinity ])
      (oneofl [ None; Some 3; Some 6 ])
      (oneofl [ []; [ 1; 2 ]; [ 2 ] ]))

let last = Array.length pool - 1

let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 80)
      (frequency
         [
           (6, map2 (fun k v -> Insert (k, v)) (int_bound last) (int_bound last));
           (2, map2 (fun k v -> Delete (k, v)) (int_bound last) (int_bound last));
           (1, map (fun p -> DeleteWhere p) (int_bound 1));
           (* zero and negative steps: equal stamps and a clock going back *)
           (3, map (fun dt -> Advance (float_of_int dt /. 2.)) (int_range (-4) 8));
           ( 3,
             map2
               (fun (k, v) i -> Probe (List.nth probe_sets i, k, v))
               (pair (int_bound last) (int_bound last))
               (int_bound (List.length probe_sets - 1)) );
         ]))

let gen_case = QCheck.Gen.pair gen_config gen_ops

let mk_tuple k v = Tuple.make "t" [ Value.VAddr "n"; pool.(k); pool.(v) ]

let probe_values positions k v =
  List.map
    (function
      | 1 -> if k land 1 = 0 then Value.VAddr "n" else Value.VStr "n"
      | 2 -> pool.(k)
      | 3 -> pool.(v)
      | _ -> Value.VNull)
    positions

(* Drive one table and the model through the same ops. [pre_index]
   forces index creation before the churn, exercising incremental
   maintenance; without it the first probe backfills lazily. Two
   subscribers share one log so inter-subscriber order is checked. *)
let run_case ~pre_index ((lifetime, cap, keyspec), ops) =
  let table = Table.create ~lifetime ?max_size:cap ~keys:keyspec "t" in
  let model = { lifetime; cap; keyspec; rows = []; next = 0; log = [] } in
  let tlog = ref [] in
  let sub tag kind tu = tlog := (tag, kind, Tuple.to_string tu) :: !tlog in
  let subscriber tag = function
    | Table.Insert tu -> sub tag "ins" tu
    | Table.Delete tu -> sub tag "del" tu
    | Table.Refresh tu -> sub tag "ref" tu
  in
  Table.subscribe table (subscriber "1");
  Table.subscribe table (subscriber "2");
  if pre_index then
    List.iter
      (fun positions ->
        ignore (Table.probe table ~now:0. ~positions ~values:(probe_values positions 0 0)))
      probe_sets;
  let now = ref 0. in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun op ->
      match op with
      | Insert (k, v) ->
          ignore (Table.insert table ~now:!now (mk_tuple k v));
          minsert model !now (mk_tuple k v)
      | Delete (k, v) ->
          ignore (Table.delete table ~now:!now (mk_tuple k v));
          mdelete model !now (mk_tuple k v)
      | DeleteWhere p ->
          let pred tu = String.length (Value.to_string (Tuple.field tu 3)) land 1 = p in
          ignore (Table.delete_where table ~now:!now pred);
          mdelete_where model !now pred
      | Advance dt -> now := !now +. dt
      | Probe (positions, k, v) ->
          let values = probe_values positions k v in
          let got =
            Table.probe table ~now:!now ~positions ~values
            |> List.map Tuple.to_string
          in
          check (got = mprobe model !now positions values))
    ops;
  (* final state: live rows in insertion order, every probe pattern,
     and the complete delta firing sequence *)
  check (List.map Tuple.to_string (Table.tuples table ~now:!now) = mtuples model !now);
  List.iter
    (fun positions ->
      (* every key value alone, every payload value alone, and a
         sample of the pairs *)
      let ks, vs =
        match positions with
        | [ 3 ] -> ([ 0 ], List.init (last + 1) Fun.id)
        | [ 2; 3 ] -> (List.init (last + 1) Fun.id, [ 0; 2; 5; 8; 11; 13 ])
        | _ -> (List.init (last + 1) Fun.id, [ 0 ])
      in
      List.iter
        (fun k ->
          List.iter
            (fun v ->
              let values = probe_values positions k v in
              let got =
                Table.probe table ~now:!now ~positions ~values |> List.map Tuple.to_string
              in
              check (got = mprobe model !now positions values))
            vs)
        ks)
    probe_sets;
  let expected_log =
    List.rev model.log
    |> List.concat_map (fun (kind, tu) -> [ ("1", kind, tu); ("2", kind, tu) ])
  in
  check (List.rev !tlog = expected_log);
  !ok

let prop_indexed_probe_equals_scan =
  QCheck.Test.make ~name:"indexed probe = naive scan (index first)" ~count:300
    (QCheck.make gen_case) (run_case ~pre_index:true)

let prop_lazy_index_equals_scan =
  QCheck.Test.make ~name:"indexed probe = naive scan (lazy backfill)" ~count:300
    (QCheck.make gen_case) (run_case ~pre_index:false)

(* The probes above must actually have used indexes. *)
let test_index_created () =
  let table = Table.create ~keys:[ 1; 2 ] "t" in
  ignore (Table.insert table ~now:0. (mk_tuple 1 2));
  ignore
    (Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VInt 1 ]);
  ignore
    (Table.probe table ~now:0. ~positions:[ 2; 3 ]
       ~values:[ Value.VInt 1; Value.VInt 2 ]);
  Alcotest.(check int) "two indexes" 2 (List.length (Table.indexed_positions table));
  (* repeated probes reuse the index *)
  ignore
    (Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VInt 7 ]);
  Alcotest.(check int) "still two" 2 (List.length (Table.indexed_positions table))

(* Index probes match under Value.equal: VStr/VAddr, VInt/VId and
   VInt/VFloat all collide, though a float never shares a primary key
   with an int. *)
let test_index_key_identity () =
  let table = Table.create ~keys:[ 1; 2 ] "t" in
  ignore
    (Table.insert table ~now:0.
       (Tuple.make "t" [ Value.VAddr "n"; Value.VStr "peer1"; Value.VInt 1 ]));
  let got =
    Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VAddr "peer1" ]
  in
  Alcotest.(check int) "addr probe finds str row" 1 (List.length got);
  ignore
    (Table.insert table ~now:0.
       (Tuple.make "t" [ Value.VAddr "n"; Value.VId 5; Value.VInt 2 ]));
  let got =
    Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ Value.VInt 5 ]
  in
  Alcotest.(check int) "int probe finds id row" 1 (List.length got);
  ignore
    (Table.insert table ~now:0.
       (Tuple.make "t" [ Value.VAddr "n"; Value.VInt 2; Value.VInt 3 ]));
  ignore
    (Table.insert table ~now:0.
       (Tuple.make "t" [ Value.VAddr "n"; Value.VFloat 2.; Value.VInt 4 ]));
  Alcotest.(check int) "float and int keys are distinct rows" 4 (Table.size table ~now:0.);
  let probe v = List.length (Table.probe table ~now:0. ~positions:[ 2 ] ~values:[ v ]) in
  Alcotest.(check int) "float probe finds int and float rows" 2 (probe (Value.VFloat 2.));
  Alcotest.(check int) "int probe finds int and float rows" 2 (probe (Value.VInt 2))

(* Eviction among equal stamps takes the lowest seq; a refresh at the
   tail's stamp does not make an older row younger than newer ones;
   a clock that goes back makes the backdated row the oldest. *)
let test_evict_equal_stamps () =
  let run steps =
    let table = Table.create ~max_size:2 ~keys:[ 2 ] "t" in
    List.iter (fun (now, k) -> ignore (Table.insert table ~now (mk_tuple k 0))) steps;
    List.map (fun tu -> Value.to_string (Tuple.field tu 2)) (Table.tuples table ~now:10.)
  in
  let check name want steps = Alcotest.(check (list string)) name want (run steps) in
  (* pool: 4 = VInt 1, 7 = VStr "a", 9 = VStr "b" *)
  check "equal stamps evict lowest seq" [ "\"a\""; "\"b\"" ] [ (0., 4); (0., 7); (0., 9) ];
  check "refresh at the same stamp stays oldest" [ "\"a\""; "\"b\"" ]
    [ (1., 4); (2., 7); (2., 4); (2., 9) ];
  check "backdated row is evicted first" [ "1"; "\"b\"" ] [ (5., 4); (3., 7); (3., 9) ]

let () =
  Alcotest.run "table_index"
    [
      ( "probe",
        [
          QCheck_alcotest.to_alcotest prop_indexed_probe_equals_scan;
          QCheck_alcotest.to_alcotest prop_lazy_index_equals_scan;
          Alcotest.test_case "index creation" `Quick test_index_created;
          Alcotest.test_case "index key identity" `Quick test_index_key_identity;
          Alcotest.test_case "eviction among equal stamps" `Quick test_evict_equal_stamps;
        ] );
    ]
