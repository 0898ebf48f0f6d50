(* Reference primary-key identity for the store's model-based tests,
   as canonical key text: values with the same text are the same key
   (ints and ids by number, strings and addresses by text, floats by
   their [string_of_float] text). [Store.Table] compares the values
   themselves and must agree with this on every input the tests
   generate. *)

open Overlog

let rec canonical_key = function
  | Value.VInt i -> "n:" ^ string_of_int i
  | Value.VId i -> "n:" ^ string_of_int (Value.Ring.norm i)
  | Value.VFloat f -> "f:" ^ string_of_float f
  | Value.VStr s | Value.VAddr s -> "s:" ^ s
  | Value.VBool b -> if b then "b:1" else "b:0"
  | Value.VList vs -> "l:[" ^ String.concat "" (List.map canonical_key vs) ^ "]"
  | Value.VNull -> "null"

(* The key text of a field list, as the store keyed rows. *)
let canon parts = String.concat "\x00" (List.map canonical_key parts)
