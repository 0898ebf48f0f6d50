(** OverLog tuples: a relation name plus a field vector.

    By P2 convention field 1 (index 0) is the location specifier — the
    address of the node where the tuple lives or must be delivered.
    Tuples are immutable; each carries a node-unique [id] assigned when
    it is first created on a node (used by the tracer to memoize tuples
    in the [tupleTable], paper §2.1.3). *)

type t = { name : string; fields : Value.t array; id : int }

let anonymous_id = -1

let make ?(id = anonymous_id) name fields = { name; fields = Array.of_list fields; id }
let make_arr ?(id = anonymous_id) name fields = { name; fields; id }

let name t = t.name
let id t = t.id
let with_id t id = { t with id }
let arity t = Array.length t.fields
let fields t = Array.to_list t.fields

(* 1-indexed field access, matching the paper's keys(...) convention. *)
let field t i =
  if i < 1 || i > Array.length t.fields then
    invalid_arg (Fmt.str "Tuple.field %d of %s/%d" i t.name (Array.length t.fields))
  else t.fields.(i - 1)

let location t =
  if Array.length t.fields = 0 then
    invalid_arg (Fmt.str "Tuple.location: %s has no fields" t.name)
  else Value.as_addr t.fields.(0)

let equal_contents t1 t2 =
  String.equal t1.name t2.name
  && Array.length t1.fields = Array.length t2.fields
  && Array.for_all2 Value.equal t1.fields t2.fields

let compare_contents t1 t2 =
  match String.compare t1.name t2.name with
  | 0 -> List.compare Value.compare (fields t1) (fields t2)
  | c -> c

let pp ppf t =
  Fmt.pf ppf "%s(%a)" t.name (Fmt.list ~sep:(Fmt.any ", ") Value.pp) (fields t)

let to_string t = Fmt.str "%a" pp t

(* Key extraction for primary-key semantics: positions are 1-indexed
   over all fields (including the location). *)
let key_field t i =
  if i < 1 || i > Array.length t.fields then Value.VNull else t.fields.(i - 1)

let key_of t positions = List.map (key_field t) positions

let size_bytes t =
  24 + String.length t.name
  + Array.fold_left (fun acc v -> acc + Value.size_bytes v) 0 t.fields
