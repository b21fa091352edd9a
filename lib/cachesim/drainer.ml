(* A pipelined ring consumer: batches drain on a dedicated domain
   while the VM keeps executing.

   The serial measure path interleaves execution and simulation on one
   core; with a second core available the drain can ride shotgun — the
   ring's sink hands the filled buffer pair to a worker domain, swaps
   fresh (or recycled) arrays into the ring, and returns immediately.
   The worker drains handed-off batches strictly in FIFO order through
   the same [drain] callback the serial sink would use, so the
   simulated cache state and every counter are byte-equal to the
   serial path — only the wall-clock overlap changes.

   Flow control is a bounded buffer pool: at most [depth] buffer pairs
   circulate beyond the one living in the ring. When the pool is dry
   the producer blocks until the worker returns one, which keeps
   memory bounded and applies back-pressure when simulation is slower
   than execution.

   Not suitable for consumers that must observe sampler or hierarchy
   state synchronously with the VM (the K>0 bulk-advance check): those
   stay on serial sinks. The driver uses this only for the
   exact-fidelity measure phase, and only when the host has more than
   one core. Profile collection could use it too — its PMU samples
   inside the drain — but measured slower there, so it stays serial. *)

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
  mutable failed : exn option;  (* first drain exception, re-raised by join *)
  mutable dom : unit Domain.t option;
}

let rec worker t =
  Mutex.lock t.mu;
  while Queue.is_empty t.q && not t.stopping do
    Condition.wait t.nonempty t.mu
  done;
  if Queue.is_empty t.q then Mutex.unlock t.mu (* stopping and drained *)
  else begin
    let a, m, n = Queue.pop t.q in
    Mutex.unlock t.mu;
    (* after a failure keep recycling buffers (so the producer never
       deadlocks) but stop simulating: the run's counters are already
       lost *)
    (match t.failed with
    | None -> ( try t.drain a m n with e -> t.failed <- Some e)
    | Some _ -> ());
    Mutex.lock t.mu;
    t.spares <- (a, m) :: t.spares;
    Condition.signal t.nonfull;
    Mutex.unlock t.mu;
    worker t
  end

let create ?(depth = 2) ~drain () =
  if depth <= 0 then invalid_arg "Drainer.create: depth must be positive";
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
      dom = None;
    }
  in
  t.dom <- Some (Domain.spawn (fun () -> worker t));
  t

let sink t (rg : Ring.t) =
  let n = rg.Ring.len in
  if n > 0 then begin
    Mutex.lock t.mu;
    let sa, sm =
      match t.spares with
      | p :: rest ->
        t.spares <- rest;
        p
      | [] ->
        if t.spares_made < t.depth then begin
          t.spares_made <- t.spares_made + 1;
          (Array.make (Array.length rg.Ring.addrs) 0,
           Array.make (Array.length rg.Ring.metas) 0)
        end
        else begin
          while t.spares = [] do
            Condition.wait t.nonfull t.mu
          done;
          match t.spares with
          | p :: rest ->
            t.spares <- rest;
            p
          | [] -> assert false
        end
    in
    Queue.push (rg.Ring.addrs, rg.Ring.metas, n) t.q;
    Condition.signal t.nonempty;
    Mutex.unlock t.mu;
    rg.Ring.addrs <- sa;
    rg.Ring.metas <- sm
    (* Ring.flush resets len after the sink returns *)
  end

let join t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.signal t.nonempty;
  Mutex.unlock t.mu;
  (match t.dom with
  | Some d ->
    Domain.join d;
    t.dom <- None
  | None -> ());
  match t.failed with
  | Some e ->
    t.failed <- None;
    raise e
  | None -> ()
