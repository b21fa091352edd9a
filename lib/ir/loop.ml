type loop = {
  header : int;
  mutable body : int list;
  mutable children : loop list;
  mutable parent : loop option;
  mutable depth : int;
  mutable irreducible : bool;
}

type forest = {
  loops : loop list;  (* top level *)
  all : loop list;    (* innermost first *)
  inner : loop option array;  (* block id -> innermost loop *)
  back_edges : (int * int) list;
}

module UF = struct
  type t = int array

  let create n = Array.init n (fun i -> i)

  let rec find (t : t) x = if t.(x) = x then x else begin
    let r = find t t.(x) in
    t.(x) <- r;
    r
  end

  let union t x w = t.(find t x) <- find t w
end

let compute (cfg : Cfg.t) : forest =
  let nb = Cfg.num_blocks cfg in
  (* DFS preorder *)
  let number = Array.make nb (-1) in
  let nodes = Array.make nb (-1) in
  let last = Array.make nb (-1) in
  let counter = ref 0 in
  let rec dfs b =
    if number.(b) < 0 then begin
      let pre = !counter in
      incr counter;
      number.(b) <- pre;
      nodes.(pre) <- b;
      List.iter dfs cfg.succs.(b);
      last.(pre) <- !counter - 1
    end
  in
  dfs (Cfg.entry cfg);
  let n = !counter in
  let is_ancestor w v = w <= v && v <= last.(w) in
  (* classify predecessors in preorder space *)
  let back_preds = Array.make n [] in
  let non_back_preds = Array.make n [] in
  let back_edges = ref [] in
  for w = 0 to n - 1 do
    let b = nodes.(w) in
    List.iter
      (fun pb ->
        if number.(pb) >= 0 then begin
          let v = number.(pb) in
          if is_ancestor w v then begin
            back_preds.(w) <- v :: back_preds.(w);
            back_edges := (pb, b) :: !back_edges
          end
          else non_back_preds.(w) <- v :: non_back_preds.(w)
        end)
      cfg.preds.(b)
  done;
  let uf = UF.create n in
  let header = Array.make n (-1) in
  let is_header = Array.make n false in
  let irreducible = Array.make n false in
  for w = n - 1 downto 0 do
    let p = Hashtbl.create 8 in
    let worklist = Queue.create () in
    let add_p x =
      if (not (Hashtbl.mem p x)) && x <> w then begin
        Hashtbl.replace p x ();
        Queue.add x worklist
      end
    in
    List.iter
      (fun v ->
        if v <> w then add_p (UF.find uf v) else is_header.(w) <- true
        (* self loop *))
      back_preds.(w);
    if Hashtbl.length p > 0 then is_header.(w) <- true;
    while not (Queue.is_empty worklist) do
      let x = Queue.pop worklist in
      List.iter
        (fun y ->
          let y' = UF.find uf y in
          if not (is_ancestor w y') then begin
            irreducible.(w) <- true;
            non_back_preds.(w) <- y' :: non_back_preds.(w)
          end
          else add_p y')
        non_back_preds.(x)
    done;
    Hashtbl.iter
      (fun x () ->
        header.(x) <- w;
        UF.union uf x w)
      p
  done;
  (* build loop records for headers *)
  let by_header = Hashtbl.create 8 in
  for w = 0 to n - 1 do
    if is_header.(w) then
      Hashtbl.replace by_header nodes.(w)
        { header = nodes.(w); body = [ nodes.(w) ]; children = [];
          parent = None; depth = 0; irreducible = irreducible.(w) }
  done;
  (* membership and nesting *)
  for x = 0 to n - 1 do
    let h = header.(x) in
    if h >= 0 then begin
      let outer = Hashtbl.find by_header nodes.(h) in
      if is_header.(x) then begin
        let l = Hashtbl.find by_header nodes.(x) in
        l.parent <- Some outer;
        outer.children <- l :: outer.children
      end
      else outer.body <- nodes.(x) :: outer.body
    end
  done;
  let top =
    Hashtbl.fold
      (fun _ l acc -> if l.parent = None then l :: acc else acc)
      by_header []
  in
  let rec set_depth d l =
    l.depth <- d;
    List.iter (set_depth (d + 1)) l.children
  in
  List.iter (set_depth 1) top;
  (* innermost loop per block *)
  let inner = Array.make nb None in
  Hashtbl.iter
    (fun _ l -> List.iter (fun b -> inner.(b) <- Some l) l.body)
    by_header;
  (* all loops innermost-first = descending depth, stable on header id *)
  let all =
    Hashtbl.fold (fun _ l acc -> l :: acc) by_header []
    |> List.sort (fun a b ->
           match compare b.depth a.depth with
           | 0 -> compare a.header b.header
           | c -> c)
  in
  { loops = top; all; inner; back_edges = !back_edges }

let top_level f = f.loops
let all_loops f = f.all

let innermost f b =
  if b >= 0 && b < Array.length f.inner then f.inner.(b) else None

let rec all_blocks l = l.body @ List.concat_map all_blocks l.children

let is_back_edge f e = List.mem e f.back_edges
