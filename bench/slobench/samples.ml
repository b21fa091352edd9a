type t = { mutable data : float array; mutable n : int; mutable sorted : bool }

let create cap = { data = Array.make (max 1 cap) 0.0; n = 0; sorted = true }

let add s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1;
  s.sorted <- false

let count s = s.n

let mean s =
  if s.n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to s.n - 1 do acc := !acc +. s.data.(i) done;
    !acc /. float_of_int s.n
  end

let percentile s p =
  if s.n = 0 then invalid_arg "Samples.percentile: no samples";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Samples.percentile: p outside [0, 100]";
  if not s.sorted then begin
    let live = Array.sub s.data 0 s.n in
    Array.sort Float.compare live;
    Array.blit live 0 s.data 0 s.n;
    s.sorted <- true
  end;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int s.n)) in
  s.data.(max 1 (min s.n rank) - 1)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Samples.median: no values";
  let a = sorted_copy xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(data, n=4, method='exclusive') *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Samples.quartiles: need at least two values";
  let a = sorted_copy xs in
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 2, cut 3)
