type t = {
  line_shift : int;
  index_mask : int;
  tags : int array;            (* -1 = invalid *)
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~size_bytes ~line_bytes =
  if not (is_pow2 size_bytes && is_pow2 line_bytes && line_bytes <= size_bytes)
  then invalid_arg "Cache.create: sizes must be powers of two";
  let nlines = size_bytes / line_bytes in
  { line_shift = log2 line_bytes;
    index_mask = nlines - 1;
    tags = Array.make nlines (-1);
    misses = 0 }

(* [idx] is masked by [index_mask], so it is always within [tags]:
   the unsafe accesses keep the simulator's single hottest call free of
   bounds checks. A hit changes no state. *)
let fill t addr =
  let line = addr lsr t.line_shift in
  Array.unsafe_set t.tags (line land t.index_mask) line;
  t.misses <- t.misses + 1

let access t addr =
  let line = addr lsr t.line_shift in
  if Array.unsafe_get t.tags (line land t.index_mask) = line then true
  else (fill t addr; false)

let misses t = t.misses
