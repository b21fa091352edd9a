type error = {
  err_exn : string;
  err_backtrace : string;
}

type 'a state = Pending | Done of 'a | Failed of error

type 'a future = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a state;
}

type t = {
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable joined : bool;
  mutable domains : unit Cores.t list;
  mutable busy : int;  (* workers running a job, under [q_mutex] *)
  n_jobs : int;
}

let default_jobs () = max 1 (Cores.total - 1)

let jobs t = t.n_jobs

(* Worker loop: take the next thunk off the queue, run it, repeat until
   the pool is closed and the queue drained. The thunk itself contains
   the try/with that feeds the future, so nothing a job raises can
   escape here. The submitter blocks while the workers run, so the
   first busy worker stands in for it; each other busy worker holds a
   claim on a spare core for the length of its job. *)
let worker t () =
  let rec loop () =
    Mutex.lock t.q_mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.q_cond t.q_mutex
    done;
    match Queue.take_opt t.queue with
    | Some job ->
      t.busy <- t.busy + 1;
      if t.busy > 1 then Cores.claim ();
      Mutex.unlock t.q_mutex;
      job ();
      Mutex.lock t.q_mutex;
      if t.busy > 1 then Cores.release ();
      t.busy <- t.busy - 1;
      Mutex.unlock t.q_mutex;
      loop ()
    | None ->
      (* queue empty and pool closed *)
      Mutex.unlock t.q_mutex
  in
  loop ()

let create ~jobs =
  if jobs < 1 || jobs > 256 then
    invalid_arg "Pool.create: jobs must be between 1 and 256";
  let t =
    {
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      queue = Queue.create ();
      closed = false;
      joined = false;
      domains = [];
      busy = 0;
      n_jobs = jobs;
    }
  in
  t.domains <- List.init jobs (fun _ -> Cores.spawn ~spare:false (worker t));
  t

let fill fut st =
  Mutex.lock fut.f_mutex;
  fut.f_state <- st;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_mutex

let submit t f =
  let fut =
    { f_mutex = Mutex.create (); f_cond = Condition.create ();
      f_state = Pending }
  in
  let job () =
    match f () with
    | v -> fill fut (Done v)
    | exception e ->
      let bt = Printexc.get_backtrace () in
      fill fut (Failed { err_exn = Printexc.to_string e; err_backtrace = bt })
  in
  Mutex.lock t.q_mutex;
  if t.closed then begin
    Mutex.unlock t.q_mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add job t.queue;
  Condition.signal t.q_cond;
  Mutex.unlock t.q_mutex;
  fut

let await fut =
  Mutex.lock fut.f_mutex;
  while fut.f_state = Pending do
    Condition.wait fut.f_cond fut.f_mutex
  done;
  let st = fut.f_state in
  Mutex.unlock fut.f_mutex;
  match st with
  | Done v -> Ok v
  | Failed e -> Error e
  | Pending -> assert false

let shutdown t =
  Mutex.lock t.q_mutex;
  t.closed <- true;
  Condition.broadcast t.q_cond;
  let must_join = not t.joined in
  t.joined <- true;
  Mutex.unlock t.q_mutex;
  if must_join then begin
    List.iter Cores.join t.domains;
    t.domains <- []
  end
