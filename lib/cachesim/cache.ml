type t = {
  cname : string;
  line : int;
  assoc : int;
  nsets : int;
  line_shift : int;    (* log2 line; line is validated as a power of 2 *)
  set_mask : int;      (* nsets - 1 when nsets is a power of 2, else 0 *)
  set_shift : int;     (* log2 nsets when a power of 2, else -1 *)
  tags : int array;    (* nsets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go n x = if x <= 1 then n else go (n + 1) (x lsr 1) in
  go 0 x

let create ~name ~size ~line ~assoc =
  if line <= 0 || assoc <= 0 || size <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  if not (is_pow2 line) then invalid_arg "Cache.create: line not a power of 2";
  if size mod (line * assoc) <> 0 then
    invalid_arg "Cache.create: size not divisible by line*assoc";
  let nsets = size / (line * assoc) in
  {
    cname = name; line; assoc; nsets;
    line_shift = log2 line;
    set_mask = (if is_pow2 nsets then nsets - 1 else 0);
    set_shift = (if is_pow2 nsets then log2 nsets else -1);
    tags = Array.make (nsets * assoc) (-1);
    stamps = Array.make (nsets * assoc) 0;
    tick = 0; hits = 0; misses = 0;
  }

(* The probe, and with it the simulator's semantics: shift/mask set
   indexing on power-of-two set counts with a divide fallback (the odd
   6144-set Itanium L2), tick first, a while-scan of the ways, and on a
   miss a fill of the first way holding the minimal (LRU) stamp.
   Returns the way on a hit and [lnot way] (negative) on a miss: one
   sign test tells the caller both. [Hierarchy]'s batch drains run the
   same state machine inlined. *)
let probe c ~count addr =
  let tags = c.tags and stamps = c.stamps and assoc = c.assoc in
  let line_no = addr lsr c.line_shift in
  let set, tag =
    if c.set_shift >= 0 then (line_no land c.set_mask, line_no lsr c.set_shift)
    else (line_no mod c.nsets, line_no / c.nsets)
  in
  let base = set * assoc in
  let tick = c.tick + 1 in
  c.tick <- tick;
  let lim = base + assoc in
  let i = ref base in
  while !i < lim && Array.unsafe_get tags !i <> tag do incr i done;
  if !i < lim then begin
    Array.unsafe_set stamps !i tick;
    if count then c.hits <- c.hits + 1;
    !i
  end
  else begin
    if count then c.misses <- c.misses + 1;
    let v = ref base in
    for w = base + 1 to lim - 1 do
      if Array.unsafe_get stamps w < Array.unsafe_get stamps !v then v := w
    done;
    Array.unsafe_set tags !v tag;
    Array.unsafe_set stamps !v tick;
    lnot !v
  end

let access t ~addr = probe t ~count:true addr >= 0
let touch t ~addr = probe t ~count:false addr >= 0

let line_size t = t.line
let line_shift t = t.line_shift
let name t = t.cname
let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.tick <- 0;
  reset_stats t
