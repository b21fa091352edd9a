(* The process's one domain budget. The calling domain holds one core;
   the rest are spares, counted in one atomic [balance]: the spares
   free, or, below zero, the spares owed to claims made while none was
   free. A spare given back pays a debt before anyone can take it. *)

let total = Domain.recommended_domain_count ()

let balance = Atomic.make (max 0 (total - 1))

let free () = max 0 (Atomic.get balance)

let rec take () =
  let n = Atomic.get balance in
  n > 0 && (Atomic.compare_and_set balance n (n - 1) || take ())

let give () = Atomic.incr balance

let claim () = Atomic.decr balance

let release = give

type 'a t = { dom : 'a Domain.t; holds : bool }

(* a failed spawn (the runtime's domain cap) must not keep the spare *)
let start ~holds f =
  match Domain.spawn f with
  | dom -> { dom; holds }
  | exception e ->
    if holds then give ();
    raise e

let spawn ?(spare = true) f = start ~holds:(spare && take ()) f

let try_spawn f = if take () then Some (start ~holds:true f) else None

let join t =
  Fun.protect
    ~finally:(fun () -> if t.holds then give ())
    (fun () -> Domain.join t.dom)
