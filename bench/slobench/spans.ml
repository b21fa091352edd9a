module Clock = Slo_util.Clock

type t = {
  on : bool;
  mutable names : string array;
  mutable tids : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable child_ns : int array;  (* time covered by direct children *)
  mutable n : int;
  mutable stack : int list;      (* open main-track spans, innermost first *)
  work : (string, int) Hashtbl.t;
}

let create ~enabled =
  let cap = if enabled then 1 lsl 14 else 1 in
  {
    on = enabled;
    names = Array.make cap "";
    tids = Array.make cap 0;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    child_ns = Array.make cap 0;
    n = 0;
    stack = [];
    work = Hashtbl.create 8;
  }

let now () = Int64.to_int (Clock.now_ns ())

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.tids <- ext t.tids 0;
  t.starts <- ext t.starts 0;
  t.stops <- ext t.stops 0;
  t.child_ns <- ext t.child_ns 0

let push t ~tid name start =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.tids.(i) <- tid;
  t.starts.(i) <- start;
  t.stops.(i) <- start;
  t.child_ns.(i) <- 0;
  t.n <- i + 1;
  i

let close t i =
  let stop = now () in
  t.stops.(i) <- stop;
  (match t.stack with
  | _ :: (parent :: _ as rest) ->
    t.child_ns.(parent) <- t.child_ns.(parent) + (stop - t.starts.(i));
    t.stack <- rest
  | _ -> t.stack <- [])

let span t name f =
  if not t.on then f ()
  else begin
    let i = push t ~tid:0 name (now ()) in
    t.stack <- i :: t.stack;
    Fun.protect ~finally:(fun () -> close t i) f
  end

let record t ~tid name ~start_ns ~stop_ns =
  if t.on then begin
    let i = push t ~tid name start_ns in
    t.stops.(i) <- stop_ns;
    match t.stack with
    | parent :: _ when tid = 0 ->
      t.child_ns.(parent) <- t.child_ns.(parent) + (stop_ns - start_ns)
    | _ -> ()
  end

let add_work t name n =
  if t.on then
    Hashtbl.replace t.work name (n + Option.value ~default:0 (Hashtbl.find_opt t.work name))

let work t name = Option.value ~default:0 (Hashtbl.find_opt t.work name)

let fold_named t name f init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    if String.equal t.names.(i) name then acc := f !acc i
  done;
  !acc

let count t name = fold_named t name (fun c _ -> c + 1) 0

let self_ms t name =
  let ns =
    fold_named t name
      (fun acc i -> acc + (t.stops.(i) - t.starts.(i) - t.child_ns.(i)))
      0
  in
  float_of_int ns /. 1e6

let layers t =
  let seen = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do Hashtbl.replace seen t.names.(i) () done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let chrome_header = "{\"traceEvents\":["
let chrome_footer = "],\"displayTimeUnit\":\"ms\"}"

(* one event per line, so traces of several runs merge line by line *)
let write_chrome ts ~pid path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (chrome_header ^ "\n");
      let first = ref true in
      List.iter
        (fun t ->
          for i = 0 to t.n - 1 do
            if not !first then output_string oc ",\n";
            first := false;
            (* names are plain ASCII, so %S is also a JSON string *)
            Printf.fprintf oc
              "{\"name\":%S,\"cat\":\"slobench\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
              t.names.(i) pid t.tids.(i)
              (float_of_int t.starts.(i) /. 1e3)
              (float_of_int (t.stops.(i) - t.starts.(i)) /. 1e3)
          done)
        ts;
      output_string oc ("\n" ^ chrome_footer ^ "\n"))

let merge_chrome ~into files =
  let events =
    List.concat_map
      (fun file ->
        In_channel.with_open_text file In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               if String.starts_with ~prefix:"{\"name\"" line then
                 Some
                   (if String.ends_with ~suffix:"," line then
                      String.sub line 0 (String.length line - 1)
                    else line)
               else None))
      files
  in
  Out_channel.with_open_text into (fun oc ->
      output_string oc (chrome_header ^ "\n");
      output_string oc (String.concat ",\n" events);
      output_string oc ("\n" ^ chrome_footer ^ "\n"))
