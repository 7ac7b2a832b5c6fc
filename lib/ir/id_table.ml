(* Int-keyed table for IR ids (always > 0): open addressing with linear
   probing over two int arrays, so lookups and inserts allocate nothing
   on the minor heap. The printer numbers values with it and the
   verifier tracks the values in scope. *)

type t = {
  mutable keys : int array; (* 0 = empty slot *)
  mutable vals : int array;
  mutable count : int;
}

let create n =
  let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
  let cap = pow2 16 in
  { keys = Array.make cap 0; vals = Array.make cap 0; count = 0 }

let rec probe keys mask id i =
  let k = Array.unsafe_get keys i in
  if k = id || k = 0 then i else probe keys mask id ((i + 1) land mask)

let slot keys id =
  let mask = Array.length keys - 1 in
  probe keys mask id (id land mask)

(* The value bound to [id], or -1. *)
let find t id =
  let i = slot t.keys id in
  if Array.unsafe_get t.keys i = 0 then -1 else Array.unsafe_get t.vals i

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap 0;
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> 0 then begin
      let j = slot t.keys k in
      t.keys.(j) <- k;
      t.vals.(j) <- vals.(i)
    end
  done

let replace t id v =
  let i = slot t.keys id in
  if t.keys.(i) = 0 then begin
    t.keys.(i) <- id;
    t.count <- t.count + 1
  end;
  t.vals.(i) <- v;
  if 2 * t.count > Array.length t.keys then grow t
