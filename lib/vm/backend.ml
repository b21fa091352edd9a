(* The execution-backend selector.

   [Walk] is the tree-walking reference interpreter ({!Interp});
   [Superblock] is the compiled engine ({!Compile}): register-direct
   closures with straight-line jump chains fused into superblocks. The
   two are observationally identical — same output bytes, step counts,
   event streams and error messages — which the differential tests
   enforce, so [Superblock] is the default everywhere and [Walk]
   remains the semantic baseline the fast paths are checked against.
   ["closure"], the name of the compiled engine before superblock
   fusion became unconditional, still parses to it. *)

exception Runtime_error = Rt.Runtime_error

type result = Rt.result = { exit_code : int; output : string; steps : int }

type t = Walk | Superblock

let default = Superblock
let all = [ Walk; Superblock ]

let to_string = function Walk -> "walk" | Superblock -> "superblock"

let of_string = function
  | "walk" -> Some Walk
  | "superblock" | "closure" -> Some Superblock
  | _ -> None

(* the walker carries a flush thunk: its ring support is a synthesized
   per-access hook, and the tail of the ring must still be drained when
   the run ends *)
type vm = Vwalk of Interp.t * (unit -> unit) | Vcompiled of Compile.t

let create ?mem_hook ?edges ?bulk_hook ?ring ?max_steps backend prog =
  match backend with
  | Walk ->
    (* the walker has no bulk fast path; ignoring the hook is sound
       because a bulk advance is defined as equivalent to the same
       accesses fed one at a time. Ring support is a synthesized hook —
       the walker is the semantic reference, not a speed path, so the
       per-access push is fine *)
    let mem_hook, flush =
      match (mem_hook, ring) with
      | Some _, Some _ ->
        invalid_arg "Backend.create: mem_hook and ring are mutually exclusive"
      | None, Some rg ->
        let module Ring = Slo_cachesim.Ring in
        ( Some
            (fun addr size write is_float iid ->
              Ring.push rg addr (Ring.meta ~size ~write ~is_float ~iid)),
          fun () -> Ring.flush rg )
      | (Some _ | None), None -> (mem_hook, fun () -> ())
    in
    Vwalk (Interp.create ?mem_hook ?edges ?max_steps prog, flush)
  | Superblock ->
    Vcompiled (Compile.create ?mem_hook ?edges ?bulk_hook ?ring ?max_steps prog)

let run ?args = function
  | Vwalk (vm, flush) ->
    Fun.protect ~finally:flush (fun () -> Interp.run ?args vm)
  | Vcompiled vm -> Compile.run ?args vm

let run_program ?mem_hook ?edges ?bulk_hook ?ring ?max_steps ?args backend
    prog =
  run ?args (create ?mem_hook ?edges ?bulk_hook ?ring ?max_steps backend prog)
