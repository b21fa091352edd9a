let l1_bound_pp = 0.5
let l2_bound_pp = 1.0
let speedup_zero_pct = 0.1

let sign_of x =
  if x > speedup_zero_pct then 1 else if x < -.speedup_zero_pct then -1 else 0

let sign_flip a b =
  let sa = sign_of a and sb = sign_of b in
  if sa = sb then false
  else if sa * sb < 0 then true
  else Float.abs (if sa = 0 then b else a) > 2.0 *. speedup_zero_pct
