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

type vm = Vwalk of Interp.t | Vcompiled of Compile.t

let create ?edges ?ring ?max_steps backend prog =
  match backend with
  | Walk -> Vwalk (Interp.create ?ring ?edges ?max_steps prog)
  | Superblock -> Vcompiled (Compile.create ?edges ?ring ?max_steps prog)

let run ?args = function
  | Vwalk vm -> Interp.run ?args vm
  | Vcompiled vm -> Compile.run ?args vm

let run_program ?edges ?ring ?max_steps ?args backend prog =
  run ?args (create ?edges ?ring ?max_steps backend prog)
