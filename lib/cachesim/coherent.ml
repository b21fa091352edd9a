(* the false-sharing experiment's geometry: 64-byte lines, 256 lines
   per core, a 60-cycle invalidation-refill latency *)
let line = 64
let nlines = 256
let coherence_lat = 60

type t = {
  present : bool array array;  (* core -> line slot (direct mapped) *)
  tags : int array array;
  mutable invals : int;
  mutable latency : int;
}

let create () =
  {
    present = [| Array.make nlines false; Array.make nlines false |];
    tags = [| Array.make nlines (-1); Array.make nlines (-1) |];
    invals = 0;
    latency = 0;
  }

let access t ~core ~addr ~write =
  if core < 0 || core > 1 then invalid_arg "Coherent.access: core must be 0/1";
  let line_no = addr / line in
  let slot = line_no mod nlines in
  let other = 1 - core in
  let mine_hit = t.present.(core).(slot) && t.tags.(core).(slot) = line_no in
  let theirs = t.present.(other).(slot) && t.tags.(other).(slot) = line_no in
  let lat =
    if mine_hit && not (write && theirs) then 1
    else begin
      (* refill, possibly stealing the line from the other core *)
      if theirs && write then begin
        t.present.(other).(slot) <- false;
        t.invals <- t.invals + 1
      end;
      t.present.(core).(slot) <- true;
      t.tags.(core).(slot) <- line_no;
      coherence_lat
    end
  in
  (* a write to a line the other core still reads also invalidates *)
  if write && theirs && mine_hit then begin
    t.present.(other).(slot) <- false;
    t.invals <- t.invals + 1
  end;
  t.latency <- t.latency + lat;
  lat

let invalidations t = t.invals
let total_latency t = t.latency
