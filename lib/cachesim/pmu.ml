type stats = { miss_events : int; total_latency : int }

type t = {
  period : int;
  mutable counter : int;
  mutable events : int;
  table : (int, stats) Hashtbl.t;
  mutable feed : (Hierarchy.t * int) option;
    (* the hierarchy whose drain samples for us, and its miss count at
       [attach] *)
}

let create ?(period = 251) ?(phase = 0) () =
  if period <= 0 then invalid_arg "Pmu.create: period must be positive";
  (* OCaml's [mod] keeps the dividend's sign, so a negative phase would
     leave a negative counter and silently stretch the first sampling
     period; normalize into [0, period) for any phase *)
  let counter = ((phase mod period) + period) mod period in
  { period; counter; events = 0; table = Hashtbl.create 64; feed = None }

let add_sample t iid latency =
  let prev =
    Option.value
      (Hashtbl.find_opt t.table iid)
      ~default:{ miss_events = 0; total_latency = 0 }
  in
  Hashtbl.replace t.table iid
    {
      miss_events = prev.miss_events + 1;
      total_latency = prev.total_latency + latency;
    }

let record t ~iid ~level ~latency ~is_float =
  let is_miss =
    match (level, is_float) with
    | Hierarchy.L1, _ -> false
    | Hierarchy.L2, false -> true   (* integer access that missed L1 *)
    | Hierarchy.L2, true -> false   (* FP access served by its first level *)
    | Hierarchy.Mem, _ -> true
  in
  if is_miss then begin
    t.events <- t.events + 1;
    t.counter <- t.counter + 1;
    if t.counter >= t.period then begin
      t.counter <- 0;
      add_sample t iid latency
    end
  end

(* the drain continues this PMU's count: the next sample is
   [period - counter] events away, as it would be under [record] *)
let attach t h =
  Hierarchy.set_sampler h ~period:t.period ~first:(t.period - t.counter)
    (add_sample t);
  t.feed <- Some (h, Hierarchy.miss_events h)

let events_seen t =
  match t.feed with
  | Some (h, base) -> t.events + Hierarchy.miss_events h - base
  | None -> t.events

let by_instr t =
  Hashtbl.fold (fun iid s acc -> (iid, s) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stats_of t iid =
  Option.value
    (Hashtbl.find_opt t.table iid)
    ~default:{ miss_events = 0; total_latency = 0 }
