(* The differential-testing oracle.

   Marmoset-style validation (PAPERS.md): never trust a candidate layout
   on the strength of the static legality argument alone — run the
   original and the transformed program in the VM and require

   - both IRs to pass the static well-formedness verifier;
   - byte-identical program output and equal exit codes;
   - conservation of field traffic: for every field that survives the
     transformation, the number of dynamically executed tagged loads and
     stores must be unchanged (splitting may add [__link] traffic and
     peeling piece-pointer loads, but never change how often a live field
     itself is touched).

   The access-conservation check catches bugs byte-identical output
   cannot: a transform that drops a store whose value is never printed,
   or duplicates an access, still miscounts. *)

module Interp = Slo_vm.Interp
module Backend = Slo_vm.Backend
module Hierarchy = Slo_cachesim.Hierarchy
module Cache = Slo_cachesim.Cache
module Ring = Slo_cachesim.Ring
module Drainer = Slo_cachesim.Drainer
module D = Slo_core.Driver
module H = Slo_core.Heuristics
module T = Slo_core.Transform

type failure =
  | Ill_formed_before of Verify.error list
  | Ill_formed_after of Verify.error list
  | Exit_code_differs of int * int
  | Output_differs of string * string
  | Access_count_differs of string * int * int
  | Runtime_error_after of string

type report = {
  r_before : Interp.result option;
  r_after : Interp.result option;
  r_failures : failure list;
}

let ok r = r.r_failures = []

let string_of_failure = function
  | Ill_formed_before errs ->
    Printf.sprintf "original IR is ill-formed:\n%s" (Verify.report errs)
  | Ill_formed_after errs ->
    Printf.sprintf "transformed IR is ill-formed:\n%s" (Verify.report errs)
  | Exit_code_differs (b, a) ->
    Printf.sprintf "exit code differs: %d before, %d after" b a
  | Output_differs (b, a) ->
    Printf.sprintf "output differs:\n--- before ---\n%s--- after ---\n%s" b a
  | Access_count_differs (field, b, a) ->
    Printf.sprintf "access count to live field '%s' differs: %d before, %d after"
      field b a
  | Runtime_error_after msg ->
    Printf.sprintf "transformed program faulted: %s" msg

let describe r =
  if ok r then "oracle: ok"
  else String.concat "\n" (List.map string_of_failure r.r_failures)

(* run the program on the reference engine and count dynamically
   executed tagged accesses per field name, by the iid each ring event
   carries; names survive every transformation (split distributes the
   field records, peel gives each piece its field's name, rebuild keeps
   them), so they are the stable key to compare across the rewrite. The
   synthetic link field never existed before the transform and is
   skipped. *)
let counted_run ~args (prog : Ir.program) : Interp.result * (string, int) Hashtbl.t
    =
  let tag_of = Hashtbl.create 128 in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.idesc with
              | Ir.Iload (_, _, _, Some a) | Ir.Istore (_, _, _, Some a) -> (
                match Structs.find_opt prog.structs a.astruct with
                | Some d when a.afield < Array.length d.fields ->
                  let name = d.fields.(a.afield).Structs.name in
                  if not (String.equal name T.link_field_name) then
                    Hashtbl.replace tag_of i.iid name
                | Some _ | None -> ())
              | _ -> ())
            b.instrs)
        f.fblocks)
    prog.funcs;
  let counts = Hashtbl.create 32 in
  let drain _addrs metas n =
    for k = 0 to n - 1 do
      match Hashtbl.find_opt tag_of (Ring.meta_iid metas.(k)) with
      | Some name ->
        Hashtbl.replace counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
      | None -> ()
    done
  in
  ( Drainer.run ~pipeline:false ~drain (fun ring ->
        Backend.run ~args (Backend.create ~ring Backend.Walk prog)),
    counts )

(* field names defined by some struct of the program *)
let field_names (prog : Ir.program) =
  let names = Hashtbl.create 32 in
  Structs.iter
    (fun d ->
      Array.iter
        (fun (f : Structs.field) -> Hashtbl.replace names f.Structs.name ())
        d.fields)
    prog.structs;
  names

let diff ?(args = []) ~original ~transformed () : report =
  let failures = ref [] in
  let push f = failures := f :: !failures in
  (match Verify.program original with
  | [] -> ()
  | errs -> push (Ill_formed_before errs));
  (match Verify.program transformed with
  | [] -> ()
  | errs -> push (Ill_formed_after errs));
  if !failures <> [] then
    { r_before = None; r_after = None; r_failures = List.rev !failures }
  else begin
    let before, counts_b = counted_run ~args original in
    match counted_run ~args transformed with
    | exception Interp.Runtime_error msg ->
      { r_before = Some before; r_after = None;
        r_failures = [ Runtime_error_after msg ] }
    | after, counts_a ->
      if before.exit_code <> after.exit_code then
        push (Exit_code_differs (before.exit_code, after.exit_code));
      if not (String.equal before.output after.output) then
        push (Output_differs (before.output, after.output));
      (* compare every field name live on both sides; removed (dead)
         fields exist only before, synthetic fields only after *)
      let live_after = field_names transformed in
      let names =
        Hashtbl.fold (fun n _ acc -> n :: acc) (field_names original) []
        |> List.filter (Hashtbl.mem live_after)
        |> List.sort String.compare
      in
      List.iter
        (fun n ->
          let b = Option.value ~default:0 (Hashtbl.find_opt counts_b n) in
          let a = Option.value ~default:0 (Hashtbl.find_opt counts_a n) in
          if b <> a then push (Access_count_differs (n, b, a)))
        names;
      { r_before = Some before; r_after = Some after;
        r_failures = List.rev !failures }
  end

let run ?args (prog : Ir.program) (plans : H.plan list) : report =
  diff ?args ~original:prog
    ~transformed:(D.transform_with_plans prog plans) ()

let run_source ?args source plans : report =
  run ?args (D.compile source) plans

(* ------------------------------------------------------------------ *)
(* Backend equivalence                                                 *)
(* ------------------------------------------------------------------ *)

(* The same differential idea turned on the VM itself: the compiled
   engine is only trusted because every program run under it and under
   the tree-walking reference produces byte-identical output, identical
   step counts, an identical event stream and an identical cache-event
   outcome (same L1/L2 hit+miss counters, same level distribution, same
   extra cycles). *)

type backend_mismatch =
  | B_exit of Backend.t * int * int
  | B_output of Backend.t * string * string
  | B_counter of Backend.t * string * int * int

let string_of_backend_mismatch =
  let n = Backend.to_string in
  function
  | B_exit (b, w, c) ->
    Printf.sprintf "exit code differs: walk %d, %s %d" w (n b) c
  | B_output (b, w, c) ->
    Printf.sprintf "output differs:\n--- walk ---\n%s--- %s ---\n%s" w (n b) c
  | B_counter (b, name, w, c) ->
    Printf.sprintf "%s differs: walk %d, %s %d" name w (n b) c

(* every (addr, meta) pair a run pushed, folded in order: a wrong iid,
   size, direction or float bit changes the digest even where the
   hierarchy counters happen to agree (and PMU attribution would not) *)
type stream = { mutable events : int; mutable digest : int }

let fold_events st addrs metas n =
  let h = ref st.digest in
  for k = 0 to n - 1 do
    h := (!h lxor addrs.(k)) * 0x100000001b3;
    h := (!h lxor metas.(k)) * 0x100000001b3
  done;
  st.digest <- !h;
  st.events <- st.events + n

(* Both engines measure through the exact-run primitive and digest its
   stream. The walker's events are simulated one access at a time
   through [Hierarchy.access], the compiled engine's through the
   batched [Hierarchy.drain_quiet] the driver's measure phase runs, so
   the counter comparison below pins two things at once: engine
   equivalence AND the batched drain's byte-equality with per-access
   simulation, across the whole roster and the fuzzer's random
   programs. *)
let measured_run backend ~args ~config (prog : Ir.program) =
  let hier = Hierarchy.create config in
  let st = { events = 0; digest = 0 } in
  let drain addrs metas n =
    fold_events st addrs metas n;
    match backend with
    | Backend.Walk ->
      for k = 0 to n - 1 do
        let m = metas.(k) in
        ignore
          (Hierarchy.access hier ~addr:addrs.(k) ~size:(Ring.meta_size m)
             ~is_float:(Ring.meta_float m))
      done
    | Backend.Superblock -> Hierarchy.drain_quiet hier addrs metas 0 n
  in
  ( Drainer.run ~drain (fun ring ->
        Backend.run ~args (Backend.create ~ring backend prog)),
    hier,
    st )

let candidates = List.filter (fun b -> b <> Backend.Walk) Backend.all

let compare_backends ?(args = []) ?(config = Hierarchy.itanium)
    (prog : Ir.program) : backend_mismatch list =
  let rw, hw, sw = measured_run Backend.Walk ~args ~config prog in
  let ms = ref [] in
  let push m = ms := m :: !ms in
  List.iter
    (fun b ->
      let rc, hc, sc = measured_run b ~args ~config prog in
      if rw.Interp.exit_code <> rc.Interp.exit_code then
        push (B_exit (b, rw.Interp.exit_code, rc.Interp.exit_code));
      if not (String.equal rw.Interp.output rc.Interp.output) then
        push (B_output (b, rw.Interp.output, rc.Interp.output));
      let counter name w c = if w <> c then push (B_counter (b, name, w, c)) in
      counter "steps" rw.Interp.steps rc.Interp.steps;
      counter "events" sw.events sc.events;
      counter "event stream digest" sw.digest sc.digest;
      counter "accesses" (Hierarchy.accesses hw) (Hierarchy.accesses hc);
      counter "L1 hits"
        (Cache.hits (Hierarchy.l1 hw))
        (Cache.hits (Hierarchy.l1 hc));
      counter "L1 misses"
        (Cache.misses (Hierarchy.l1 hw))
        (Cache.misses (Hierarchy.l1 hc));
      counter "L2 hits"
        (Cache.hits (Hierarchy.l2 hw))
        (Cache.hits (Hierarchy.l2 hc));
      counter "L2 misses"
        (Cache.misses (Hierarchy.l2 hw))
        (Cache.misses (Hierarchy.l2 hc));
      let w1, w2, wm = Hierarchy.level_counts hw in
      let c1, c2, cm = Hierarchy.level_counts hc in
      counter "accesses served by L1" w1 c1;
      counter "accesses served by L2" w2 c2;
      counter "accesses served by memory" wm cm;
      counter "extra cycles" (Hierarchy.extra_cycles hw)
        (Hierarchy.extra_cycles hc))
    candidates;
  List.rev !ms

let backends_agree ?args ?config prog =
  compare_backends ?args ?config prog = []
