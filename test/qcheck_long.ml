(* QCheck iteration counts: [n] normally, [10 * n] under QCHECK_LONG
   (make fuzz) *)
let iters n =
  match Sys.getenv_opt "QCHECK_LONG" with Some _ -> n * 10 | None -> n
