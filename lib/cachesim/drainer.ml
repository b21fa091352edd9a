(* The one way to run a ring consumer: an inline sink, or batches
   drained on a dedicated domain while the VM keeps executing.

   The serial path interleaves execution and simulation on one core;
   with a spare core in the domain budget the drain can ride shotgun — the
   ring's sink hands the filled buffer pair to a worker domain, swaps
   fresh (or recycled) arrays into the ring, and returns immediately.
   The worker drains handed-off batches strictly in FIFO order through
   the same [drain] callback the inline sink would call, so the
   simulated cache state, every counter and every PMU sample (taken
   inside the drain) are byte-equal to the serial path — only the
   wall-clock overlap changes.

   Flow control is a bounded buffer pool: at most [depth] buffer pairs
   circulate beyond the one living in the ring. When the pool is dry
   the producer blocks until the worker returns one, which keeps
   memory bounded and applies back-pressure when simulation is slower
   than execution. *)

type t = {
  drain : int array -> int array -> int -> unit;
  mu : Mutex.t;
  nonempty : Condition.t;  (* worker waits: a batch arrived / stopping *)
  nonfull : Condition.t;   (* producer waits: a buffer pair came back *)
  q : (int array * int array * int) Queue.t;
  mutable spares : (int array * int array) list;
  mutable spares_made : int;
  depth : int;
  mutable stopping : bool;
  mutable failed : (exn * Printexc.raw_backtrace) option;
      (* the first drain exception, re-raised once the body returns *)
}

let rec worker t =
  Mutex.lock t.mu;
  while Queue.is_empty t.q && not t.stopping do
    Condition.wait t.nonempty t.mu
  done;
  if Queue.is_empty t.q then Mutex.unlock t.mu (* stopping and drained *)
  else begin
    let a, m, n = Queue.pop t.q in
    let live = Option.is_none t.failed in
    Mutex.unlock t.mu;
    (* after a failure keep recycling buffers (so the producer never
       deadlocks) but stop simulating: the run's counters are already
       lost *)
    let err =
      try if live then t.drain a m n; None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.mu;
    if live then t.failed <- err;
    t.spares <- (a, m) :: t.spares;
    Condition.signal t.nonfull;
    Mutex.unlock t.mu;
    worker t
  end

let sink t (rg : Ring.t) =
  let n = rg.Ring.len in
  if n > 0 then begin
    Mutex.lock t.mu;
    if t.spares = [] && t.spares_made < t.depth then begin
      t.spares_made <- t.spares_made + 1;
      t.spares <-
        [ (Array.make (Array.length rg.Ring.addrs) 0,
           Array.make (Array.length rg.Ring.metas) 0) ]
    end;
    while t.spares = [] do
      Condition.wait t.nonfull t.mu
    done;
    let sa, sm = List.hd t.spares in
    t.spares <- List.tl t.spares;
    Queue.push (rg.Ring.addrs, rg.Ring.metas, n) t.q;
    Condition.signal t.nonempty;
    Mutex.unlock t.mu;
    rg.Ring.addrs <- sa;
    rg.Ring.metas <- sm
    (* Ring.flush resets len after the sink returns *)
  end

(* stop the worker once the queue is empty and wait for it; [abort]
   (the body raised) drops the batches still queued *)
let stop t dom ~abort =
  Mutex.lock t.mu;
  t.stopping <- true;
  if abort then Queue.clear t.q;
  Condition.signal t.nonempty;
  Mutex.unlock t.mu;
  Slo_exec.Cores.join dom

let run ?pipeline ?cap ?(depth = 2) ~drain body =
  if depth <= 0 then invalid_arg "Drainer.run: depth must be positive";
  let ring = Ring.create ?cap () in
  let body () =
    let x = body ring in
    Ring.flush ring;
    x
  in
  let t =
    {
      drain;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      q = Queue.create ();
      spares = [];
      spares_made = 0;
      depth;
      stopping = false;
      failed = None;
    }
  in
  let dom = ref None in
  let go () = worker t in
  let handoff d =
    dom := Some d;
    Ring.set_sink ring (sink t)
  in
  let inline r = drain r.Ring.addrs r.Ring.metas r.Ring.len in
  (match pipeline with
  | Some true -> handoff (Slo_exec.Cores.spawn go)
  | Some false -> Ring.set_sink ring inline
  | None ->
    (* the budget's answer, asked again at every batch drained inline:
       a spare freed mid-run moves the rest of the run to a worker, and
       FIFO order keeps the counters unchanged *)
    Ring.set_sink ring (fun r ->
        match Slo_exec.Cores.try_spawn go with
        | Some d ->
          handoff d;
          sink t r
        | None -> inline r));
  match body () with
  | x -> (
    match !dom with
    | None -> x
    | Some d -> (
      stop t d ~abort:false;
      match t.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> x))
  | exception e ->
    (* the body's error wins; the drain's, if any, is dropped *)
    let bt = Printexc.get_raw_backtrace () in
    Option.iter (fun d -> stop t d ~abort:true) !dom;
    Printexc.raise_with_backtrace e bt
