module Interp = Slo_vm.Interp
module Backend = Slo_vm.Backend
module Hierarchy = Slo_cachesim.Hierarchy
module Pmu = Slo_cachesim.Pmu
module Drainer = Slo_cachesim.Drainer
module Edges = Slo_vm.Edges

type run_stats = {
  result : Interp.result;
  hierarchy : Hierarchy.t;
  pmu_events : int;
}

let collect ?(args = []) ?(instrument = true)
    ?(config = Hierarchy.itanium) ?(sample_period = 251) ?pipeline
    (prog : Ir.program) =
  let hier = Hierarchy.create config in
  (* instrumentation perturbs sampling alignment a little: model it as a
     phase offset (the paper measures the effect as correlation 0.996
     between DMISS and DMISS.NO) *)
  let pmu = Pmu.create ~period:sample_period ~phase:(if instrument then 17 else 0) () in
  Pmu.attach pmu hier;
  let edges = if instrument then Some (Edges.create prog) else None in
  (* the exact measure phase's event path: memory events arrive batched
     through a ring and the drain is the PMU, so with a spare core the
     sampling runs on the drain's domain, in the same batch order *)
  let result =
    Drainer.run ?pipeline
      ~drain:(fun addrs metas n -> Hierarchy.drain_quiet hier addrs metas 0 n)
      (fun ring ->
        Backend.run ~args (Backend.create ~ring ?edges Backend.default prog))
  in
  (* assemble the feedback file *)
  let fb = Feedback.create () in
  List.iter
    (fun (f : Ir.func) ->
      Option.iter
        (fun (r : Edges.row) ->
          let bsigs = Feedback.block_sigs f in
          for src = -1 to f.next_block - 1 do
            for dst = 0 to f.next_block - 1 do
              let n = r.counts.(Edges.slot r ~src ~dst) in
              if n > 0 then
                if src = -1 then Feedback.add_entry fb f.fname n
                else
                  Feedback.add_edge fb f.fname (Hashtbl.find bsigs src)
                    (Hashtbl.find bsigs dst) n
            done
          done)
        (Option.bind edges (fun e -> Edges.row e f.fname));
      (* d-cache samples attributed to instructions *)
      let isigs = Feedback.instr_sigs f in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              let st = Pmu.stats_of pmu i.iid in
              if st.miss_events > 0 then
                Feedback.add_dcache fb f.fname (Hashtbl.find isigs i.iid)
                  { misses = st.miss_events; latency = st.total_latency })
            b.instrs)
        f.fblocks)
    prog.funcs;
  (fb, { result; hierarchy = hier; pmu_events = Pmu.events_seen pmu })
