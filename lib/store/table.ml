(** Soft-state tables implementing the paper's [materialize] semantics:

    - per-tuple maximum lifetime (tuples expire silently),
    - maximum table size with FIFO eviction of the oldest tuple,
    - primary keys: inserting a tuple whose key matches an existing row
      replaces it (refreshing its insertion time),
    - delta subscriptions: the runtime's planner registers callbacks to
      trigger delta rule strands on insertion and deletion,
    - lazily-created secondary hash indexes ([probe]) so join stages
      pay O(matches), not O(table), per lookup.

    Time is supplied by the caller (the simulation clock), never read
    from the OS, so runs are deterministic.

    Row bookkeeping is intrusive: every live row sits at once on
    - a primary-key hash chain, hashed and compared on the key values
      themselves (no key strings),
    - the age list, ordered by (insertion time, seq): its head is the
      next row to expire and the eviction victim,
    - the seq list, in insertion order (a replaced row keeps its place),
    - one bucket list per secondary index, also in seq order.
    Expiry and eviction are pointer checks at the age-list head, and
    scans and probes walk a list already in insertion order, so no
    operation sorts and all work is proportional to the rows touched.
    Links end in shared sentinels rather than options, so they never
    box. *)

open Overlog

type delta = Insert of Tuple.t | Delete of Tuple.t | Refresh of Tuple.t

type row = {
  mutable tuple : Tuple.t;
  mutable inserted_at : float;
  seq : int;
  hash : int;  (* primary-key hash *)
  mutable hnext : row;  (* primary-key hash chain *)
  mutable aprev : row;  (* age list *)
  mutable anext : row;
  mutable sprev : row;  (* seq list *)
  mutable snext : row;
  mutable members : member array;  (* cell i: membership in index i *)
}

(* A row's place in one secondary-index bucket. *)
and member = {
  mrow : row;
  mutable bucket : bucket;
  mutable mprev : member;
  mutable mnext : member;
}

(* The rows whose fields at an index's positions share one hash, in
   seq order. *)
and bucket = { bhash : int; mutable first : member; mutable last : member }

let no_tuple = Tuple.make_arr "" [||]

let rec nil =
  { tuple = no_tuple; inserted_at = 0.; seq = -1; hash = 0; hnext = nil; aprev = nil;
    anext = nil; sprev = nil; snext = nil; members = [||] }

and nil_member = { mrow = nil; bucket = nil_bucket; mprev = nil_member; mnext = nil_member }
and nil_bucket = { bhash = 0; first = nil_member; last = nil_member }

module Buckets = Hashtbl.Make (Int)

type index = {
  positions : int list;
  pos : int array;  (* the same 1-indexed positions *)
  buckets : bucket Buckets.t;  (* by hash *)
}

type t = {
  name : string;
  lifetime : float;
  max_size : int option;
  keys : int list;  (** 1-indexed field positions; [] = whole tuple *)
  key_pos : int array;
  mutable slots : row array;  (* primary-key hash chains *)
  mutable count : int;
  head : row;  (* sentinel of both the age list and the seq list *)
  mutable next_seq : int;
  mutable subs_rev : (delta -> unit) list;  (* newest first *)
  mutable subs_arr : (delta -> unit) array option;  (* install order *)
  mutable indexes : index array;  (* in creation order, as in [members] *)
  mutable insert_count : int;
  mutable delete_count : int;
  mutable expire_count : int;
  mutable evict_count : int;
  mutable probe_count : int;
}

let new_head () =
  let rec h = { nil with aprev = h; anext = h; sprev = h; snext = h } in
  h

let create ?(lifetime = infinity) ?max_size ?(keys = []) name =
  {
    name;
    lifetime;
    max_size;
    keys;
    key_pos = Array.of_list keys;
    slots = Array.make 16 nil;
    count = 0;
    head = new_head ();
    next_seq = 0;
    subs_rev = [];
    subs_arr = None;
    indexes = [||];
    insert_count = 0;
    delete_count = 0;
    expire_count = 0;
    evict_count = 0;
    probe_count = 0;
  }

let of_materialize (m : Ast.materialize) =
  create ~lifetime:m.mlifetime ?max_size:m.msize ~keys:m.mkeys m.mname

let name t = t.name
let keys t = t.keys
let lifetime t = t.lifetime

(* Subscribers run in subscription order (rule-install order), keeping
   delta-strand firing deterministic. The reversed list + cached array
   makes [subscribe] O(1) per rule install instead of O(installed). *)
let subscribe t f =
  t.subs_rev <- f :: t.subs_rev;
  t.subs_arr <- None

let subscriber_array t =
  match t.subs_arr with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.subs_rev) in
      t.subs_arr <- Some a;
      a

let notify t delta = Array.iter (fun f -> f delta) (subscriber_array t)

(* --- hashing ------------------------------------------------------- *)

(* Spread a combined hash over the low bits a power-of-two table uses. *)
let slot_of h n =
  let h = h * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land (n - 1)

(* Primary-key identity: ints and ids by number, strings and addresses
   by text, floats by their [string_of_float] text (so floats that print
   alike share a key, and [VFloat 2.] never keys like [VInt 2]), lists
   element by element. Floats are the only kind that formats. *)
let rec pk_hash = function
  | Value.VInt i -> i
  | Value.VId i -> Value.Ring.norm i
  | Value.VFloat f -> Hashtbl.hash (string_of_float f)
  | Value.VStr s | Value.VAddr s -> Hashtbl.hash s
  | Value.VBool b -> if b then 0x5bd1e995 else 0x27d4eb2f
  | Value.VNull -> 0x1b873593
  | Value.VList vs -> List.fold_left (fun h v -> (h * 31) + pk_hash v) 0x61c88647 vs

let rec pk_equal a b =
  match (a, b) with
  | Value.VInt x, Value.VInt y -> x = y
  | Value.VId x, Value.VId y -> Value.Ring.norm x = Value.Ring.norm y
  | Value.VInt x, Value.VId y | Value.VId y, Value.VInt x -> x = Value.Ring.norm y
  | Value.VFloat x, Value.VFloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || String.equal (string_of_float x) (string_of_float y)
  | (Value.VStr x | Value.VAddr x), (Value.VStr y | Value.VAddr y) -> String.equal x y
  | Value.VBool x, Value.VBool y -> Bool.equal x y
  | Value.VNull, Value.VNull -> true
  | Value.VList xs, Value.VList ys -> List.equal pk_equal xs ys
  | _ -> false

(* The primary key is the fields at [key_pos], or every field when the
   table declares no keys. *)
let key_len t tuple =
  if Array.length t.key_pos = 0 then Tuple.arity tuple else Array.length t.key_pos

let key_value t tuple i =
  if Array.length t.key_pos = 0 then Tuple.key_field tuple (i + 1)
  else Tuple.key_field tuple t.key_pos.(i)

let rec key_hash_from t tuple n i h =
  if i = n then h
  else key_hash_from t tuple n (i + 1) ((h * 31) + pk_hash (key_value t tuple i))

let key_hash t tuple = key_hash_from t tuple (key_len t tuple) 0 17

let rec same_key_from t a b n i =
  i = n || (pk_equal (key_value t a i) (key_value t b i) && same_key_from t a b n (i + 1))

let same_key t a b =
  let n = key_len t a in
  n = key_len t b && same_key_from t a b n 0

(* Index identity is [Value.equal], hashed with [Value.hash_key]. A
   bucket holds one hash and a probe filters it with [Value.equal], so
   it returns exactly what scan-and-filter would, even where equality
   is not transitive ([VId 0] and [VFloat 0.] both equal [VInt 0] but
   not each other). *)
let rec index_hash pos tuple i h =
  if i = Array.length pos then h
  else
    index_hash pos tuple (i + 1) ((h * 31) + Value.hash_key (Tuple.key_field tuple pos.(i)))

let values_hash values = List.fold_left (fun h v -> (h * 31) + Value.hash_key v) 17 values

let rec matches_values pos tuple i = function
  | [] -> true
  | v :: vs ->
      Value.equal (Tuple.key_field tuple pos.(i)) v && matches_values pos tuple (i + 1) vs

(* --- primary-key chains -------------------------------------------- *)

let rec find_chain t h tuple r =
  if r == nil then nil
  else if r.hash = h && same_key t r.tuple tuple then r
  else find_chain t h tuple r.hnext

let find t h tuple = find_chain t h tuple t.slots.(slot_of h (Array.length t.slots))

let chain_add slots row =
  let i = slot_of row.hash (Array.length slots) in
  row.hnext <- slots.(i);
  slots.(i) <- row

let grow_slots t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) nil in
  Array.iter
    (fun r ->
      let r = ref r in
      while !r != nil do
        let next = !r.hnext in
        chain_add slots !r;
        r := next
      done)
    old;
  t.slots <- slots

let rec chain_unlink row prev =
  if prev.hnext == row then prev.hnext <- row.hnext else chain_unlink row prev.hnext

let chain_remove t row =
  let i = slot_of row.hash (Array.length t.slots) in
  let first = t.slots.(i) in
  if first == row then t.slots.(i) <- row.hnext else chain_unlink row first;
  row.hnext <- nil

(* --- age and seq lists --------------------------------------------- *)

(* The last row not younger than [r]: (inserted_at, seq) <= r's. *)
let rec age_back head r p =
  if
    p != head
    && (p.inserted_at > r.inserted_at || (p.inserted_at = r.inserted_at && p.seq > r.seq))
  then age_back head r p.aprev
  else p

(* Place [r] by walking back from the tail: one step for a new row
   while the clock has not gone back; a refreshed row also passes the
   newer rows stamped at the same instant; exact when the clock went
   back. *)
let age_place head r =
  let p = age_back head r head.aprev in
  r.aprev <- p;
  r.anext <- p.anext;
  p.anext.aprev <- r;
  p.anext <- r

let age_unlink r =
  r.aprev.anext <- r.anext;
  r.anext.aprev <- r.aprev

let seq_append head r =
  r.sprev <- head.sprev;
  r.snext <- head;
  head.sprev.snext <- r;
  head.sprev <- r

let seq_unlink r =
  r.sprev.snext <- r.snext;
  r.snext.sprev <- r.sprev

(* --- index buckets ------------------------------------------------- *)

(* The last member with a smaller seq than [seq]. *)
let rec member_back seq m =
  if m != nil_member && m.mrow.seq > seq then member_back seq m.mprev else m

(* File [m] under bucket [h] at its seq position (one step for a new
   row, which has the largest seq). *)
let member_place idx m h =
  let b =
    match Buckets.find idx.buckets h with
    | b -> b
    | exception Not_found ->
        let b = { bhash = h; first = nil_member; last = nil_member } in
        Buckets.add idx.buckets h b;
        b
  in
  let p = member_back m.mrow.seq b.last in
  m.bucket <- b;
  m.mprev <- p;
  m.mnext <- (if p == nil_member then b.first else p.mnext);
  if p == nil_member then b.first <- m else p.mnext <- m;
  if m.mnext == nil_member then b.last <- m else m.mnext.mprev <- m

let member_unlink idx m =
  let b = m.bucket in
  if m.mprev == nil_member then b.first <- m.mnext else m.mprev.mnext <- m.mnext;
  if m.mnext == nil_member then b.last <- m.mprev else m.mnext.mprev <- m.mprev;
  if b.first == nil_member then Buckets.remove idx.buckets b.bhash

(* Index [i] of the table is [idx]. *)
let index_add idx i row =
  let m = { mrow = row; bucket = nil_bucket; mprev = nil_member; mnext = nil_member } in
  row.members.(i) <- m;
  member_place idx m (index_hash idx.pos row.tuple 0 17)

(* --- row attach/detach --------------------------------------------- *)

(* Attach/detach keep the key chains, both lists and every index in
   sync; all row addition/removal must go through them. *)
let attach t row =
  if t.count >= Array.length t.slots then grow_slots t;
  chain_add t.slots row;
  t.count <- t.count + 1;
  seq_append t.head row;
  age_place t.head row;
  for i = 0 to Array.length t.indexes - 1 do
    index_add t.indexes.(i) i row
  done

let detach t row =
  chain_remove t row;
  t.count <- t.count - 1;
  seq_unlink row;
  age_unlink row;
  for i = 0 to Array.length t.indexes - 1 do
    member_unlink t.indexes.(i) row.members.(i)
  done

let restamp t row ~now =
  row.inserted_at <- now;
  age_unlink row;
  age_place t.head row

(* A replaced row keeps its seq; it changes bucket only where the
   indexed fields' hash changed. *)
let reindex t row =
  for i = 0 to Array.length t.indexes - 1 do
    let idx = t.indexes.(i) and m = row.members.(i) in
    let h = index_hash idx.pos row.tuple 0 17 in
    if h <> m.bucket.bhash then begin
      member_unlink idx m;
      member_place idx m h
    end
  done

let is_expired t ~now row = now -. row.inserted_at > t.lifetime

(* Remove expired rows; called before reads so expiry is precise
   without a background sweeper, but incremental: the age-list head is
   the oldest row, so the cost is O(rows that expired since the last
   call). Removal is atomic with respect to delta notifications:
   subscribers (delta-triggered aggregates) must never observe a
   half-swept table. Deltas fire in (insertion time, seq) order. *)
let expire t ~now =
  let head = t.head in
  if head.anext != head && is_expired t ~now head.anext then begin
    let dead = ref [] in
    while head.anext != head && is_expired t ~now head.anext do
      let row = head.anext in
      detach t row;
      t.expire_count <- t.expire_count + 1;
      dead := row :: !dead
    done;
    List.iter (fun row -> notify t (Delete row.tuple)) (List.rev !dead)
  end

let size t ~now =
  expire t ~now;
  t.count

type insert_result = Added | Replaced | Refreshed

let new_row t tuple ~now ~hash =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let n = Array.length t.indexes in
  let members = if n = 0 then [||] else Array.make n nil_member in
  { nil with tuple; inserted_at = now; seq; hash; members }

(** Insert [tuple] at time [now]. Returns what happened. Triggers
    subscriber deltas for the insertion (and for any eviction). *)
let insert t ~now tuple =
  expire t ~now;
  let h = key_hash t tuple in
  let row = find t h tuple in
  let result =
    if row != nil then begin
      if Tuple.equal_contents row.tuple tuple then begin
        (* Same contents: refresh the soft state's lifetime only. *)
        restamp t row ~now;
        Refreshed
      end
      else begin
        row.tuple <- tuple;
        reindex t row;
        restamp t row ~now;
        Replaced
      end
    end
    else begin
      (* Eviction victim: least recently inserted/refreshed (soft-state
         semantics: live state keeps getting refreshed and survives). *)
      (match t.max_size with
      | Some cap when t.count >= cap && t.head.anext != t.head ->
          let victim = t.head.anext in
          detach t victim;
          t.evict_count <- t.evict_count + 1;
          notify t (Delete victim.tuple)
      | _ -> ());
      attach t (new_row t tuple ~now ~hash:h);
      Added
    end
  in
  t.insert_count <- t.insert_count + 1;
  (match result with
  | Added | Replaced -> notify t (Insert tuple)
  | Refreshed -> notify t (Refresh tuple));
  result

(** Delete the row whose primary key equals [tuple]'s, whatever its
    other fields hold; only the key positions of [tuple] are read. *)
let delete t ~now tuple =
  expire t ~now;
  let row = find t (key_hash t tuple) tuple in
  if row == nil then false
  else begin
    detach t row;
    t.delete_count <- t.delete_count + 1;
    notify t (Delete row.tuple);
    true
  end

let rec matching_rev head pred r acc =
  if r == head then acc
  else matching_rev head pred r.snext (if pred r.tuple then r :: acc else acc)

(** Delete all rows matching a predicate, atomically with respect to
    delta notifications (see [expire]). Victims are removed and
    notified in insertion (seq) order. Returns removed tuples. *)
let delete_where t ~now pred =
  expire t ~now;
  let victims = List.rev (matching_rev t.head pred t.head.snext []) in
  List.iter
    (fun row ->
      detach t row;
      t.delete_count <- t.delete_count + 1)
    victims;
  List.iter (fun row -> notify t (Delete row.tuple)) victims;
  List.map (fun row -> row.tuple) victims

let rec collect_seq head r acc =
  if r == head then acc else collect_seq head r.sprev (r.tuple :: acc)

(** All live tuples, in insertion order (stable for tests). *)
let tuples t ~now =
  expire t ~now;
  collect_seq t.head t.head.sprev []

let iter t ~now f = List.iter f (tuples t ~now)

let mem t ~now tuple =
  expire t ~now;
  let row = find t (key_hash t tuple) tuple in
  row != nil && Tuple.equal_contents row.tuple tuple

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) nil;
  t.count <- 0;
  t.head.aprev <- t.head;
  t.head.anext <- t.head;
  t.head.sprev <- t.head;
  t.head.snext <- t.head;
  Array.iter (fun idx -> Buckets.reset idx.buckets) t.indexes

(* --- secondary-index probes ---------------------------------------- *)

(* Create (and backfill, in seq order) the index on first use;
   thereafter it is maintained incrementally by attach/detach. *)
let rec ensure_index t positions i =
  if i < Array.length t.indexes then
    if List.equal Int.equal t.indexes.(i).positions positions then t.indexes.(i)
    else ensure_index t positions (i + 1)
  else begin
    let idx = { positions; pos = Array.of_list positions; buckets = Buckets.create 16 } in
    t.indexes <- Array.append t.indexes [| idx |];
    let r = ref t.head.snext in
    while !r != t.head do
      !r.members <- Array.append !r.members [| nil_member |];
      index_add idx i !r;
      r := !r.snext
    done;
    idx
  end

let indexed_positions t = Array.to_list (Array.map (fun idx -> idx.positions) t.indexes)

let rec collect_matching pos values m acc =
  if m == nil_member then acc
  else
    collect_matching pos values m.mprev
      (if matches_values pos m.mrow.tuple 0 values then m.mrow.tuple :: acc else acc)

(** Live rows whose fields at [positions] (1-indexed) equal [values]
    under {!Value.equal}, in insertion (seq) order — the same subset
    and order a scan-and-filter would produce, at O(matches) instead of
    O(N). An empty [positions] is a full scan. *)
let probe t ~now ~positions ~values =
  if List.compare_lengths positions values <> 0 then
    invalid_arg "Table.probe: positions/values length mismatch";
  if positions = [] then tuples t ~now
  else begin
    expire t ~now;
    t.probe_count <- t.probe_count + 1;
    let idx = ensure_index t positions 0 in
    match Buckets.find idx.buckets (values_hash values) with
    | b -> collect_matching idx.pos values b.last []
    | exception Not_found -> []
  end

let rec sum_bytes head r acc =
  if r == head then acc else sum_bytes head r.snext (acc + Tuple.size_bytes r.tuple)

let bytes t ~now =
  expire t ~now;
  sum_bytes t.head t.head.snext 0

type stats = {
  live : int;
  inserts : int;
  deletes : int;
  expirations : int;
  evictions : int;
  probes : int;
}

let stats t ~now =
  {
    live = size t ~now;
    inserts = t.insert_count;
    deletes = t.delete_count;
    expirations = t.expire_count;
    evictions = t.evict_count;
    probes = t.probe_count;
  }

(* Raw lifetime counters, readable without touching expiry: metric
   gauges sample these from arbitrary host contexts, where triggering
   an expiry sweep (and its delta notifications) would be a surprising
   side effect. *)
let insert_count t = t.insert_count
let probe_count t = t.probe_count
