(* Snapshot of the static analyses on every roster and case-study
   program: the block weights each static scheme assigns, the points-to
   verdict and provenance chain of every struct, and the advice summary.

   The weights are printed with %h, so a rewrite of the frequency solve
   that changes a single bit of one block's weight shows up here; the
   points-to chains pin the first-collapse events, which depend on the
   order the fixpoint visits instructions in. The expectation lives in
   static_snapshot.expected. After a deliberate change to an analysis,
   regenerate it with

     dune exec test/test_static_snapshot.exe -- --generate \
       > test/static_snapshot.expected *)

module D = Slo_core.Driver
module W = Slo_profile.Weights
module P = Slo_pointsto.Pointsto
module Suite = Slo_suite.Suite

let programs = Suite.roster @ Suite.case_studies
let schemes = W.[ SPBO; ISPBO; ISPBO_NO; ISPBO_W ]

let snapshot (e : Suite.entry) =
  let prog = D.compile e.source in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "== %s" e.name;
  List.iter
    (fun scheme ->
      let w = W.block_weights prog scheme ~feedback:None in
      List.iter
        (fun (f : Ir.func) ->
          line "weights %s %s:%s" (W.name scheme) f.fname
            (String.concat ""
               (Array.to_list
                  (Array.map (Printf.sprintf " %h") (Hashtbl.find w f.fname)))))
        prog.funcs)
    schemes;
  let pts = P.analyze prog in
  List.iter
    (fun s ->
      line "struct %s: collapsed=%b exposed=[%s]" s (P.collapsed pts s)
        (String.concat "," (List.map string_of_int (P.exposed_fields pts s)));
      List.iter
        (fun (ev : P.event) ->
          line "  why %s #%d %s: %s" ev.ev_fn ev.ev_iid
            (Ir.Loc.to_string ev.ev_loc) ev.ev_what)
        (P.why_collapsed pts s))
    (Structs.names prog.structs);
  List.iter (line "advice %s") (Slo_advice.Advice.summary (Slo_advice.Advice.check prog));
  Buffer.contents b

let expected = lazy (Snapshot.sections "static_snapshot.expected")

let check (e : Suite.entry) () =
  match Hashtbl.find_opt (Lazy.force expected) e.name with
  | None -> Alcotest.failf "%s has no section in static_snapshot.expected" e.name
  | Some want -> Alcotest.(check string) "snapshot" want (snapshot e)

let () =
  if Array.mem "--generate" Sys.argv then
    List.iter (fun e -> print_string (snapshot e)) programs
  else
    Alcotest.run "static_snapshot"
      [
        ( "weights, points-to and advice",
          List.map (fun (e : Suite.entry) -> Alcotest.test_case e.name `Quick (check e)) programs );
      ]
