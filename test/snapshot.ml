(* The expectation files of the snapshot tests: "== NAME" headers, each
   followed by its section's lines. *)
let sections file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let sections = Hashtbl.create 32 in
  let name = ref "" and cur = Buffer.create 4096 in
  let flush () =
    if !name <> "" then Hashtbl.replace sections !name (Buffer.contents cur);
    Buffer.clear cur
  in
  List.iter
    (fun l ->
      if String.starts_with ~prefix:"== " l then begin
        flush ();
        name := String.sub l 3 (String.length l - 3)
      end;
      if l <> "" then (Buffer.add_string cur l; Buffer.add_char cur '\n'))
    (String.split_on_char '\n' text);
  flush ();
  sections

(* The printed IR with %rN registers and BN block labels renumbered in
   order of first appearance, restarting at every function; string
   literals (the only quoted text the printer emits) are copied
   verbatim. *)
let canonical text =
  let out = Buffer.create (String.length text) in
  let regs = Hashtbl.create 64 and blocks = Hashtbl.create 16 in
  let rename tbl n =
    match Hashtbl.find_opt tbl n with
    | Some k -> k
    | None ->
      let k = Hashtbl.length tbl in
      Hashtbl.replace tbl n k;
      k
  in
  let digits s i =
    let j = ref i in
    while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    !j
  in
  (* copy [line], renaming registers; [block_at] says whether a "B" at
     a position starts a block label *)
  let copy line ~block_at =
    let n = String.length line in
    let in_str = ref false and i = ref 0 in
    while !i < n do
      let c = line.[!i] in
      if !in_str then begin
        Buffer.add_char out c;
        if c = '\\' && !i + 1 < n then begin
          Buffer.add_char out line.[!i + 1];
          incr i
        end
        else if c = '"' then in_str := false;
        incr i
      end
      else if c = '"' then (in_str := true; Buffer.add_char out c; incr i)
      else if c = '%' && !i + 2 < n && line.[!i + 1] = 'r'
              && digits line (!i + 2) > !i + 2 then begin
        let j = digits line (!i + 2) in
        let r = int_of_string (String.sub line (!i + 2) (j - !i - 2)) in
        Printf.bprintf out "%%r%d" (rename regs r);
        i := j
      end
      else if c = 'B' && block_at !i && digits line (!i + 1) > !i + 1 then begin
        let j = digits line (!i + 1) in
        let b = int_of_string (String.sub line (!i + 1) (j - !i - 1)) in
        Printf.bprintf out "B%d" (rename blocks b);
        i := j
      end
      else (Buffer.add_char out c; incr i)
    done;
    Buffer.add_char out '\n'
  in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"func " line then begin
        Hashtbl.reset regs;
        Hashtbl.reset blocks
      end;
      let trimmed = String.trim line in
      let lead = String.length line - String.length (String.trim line) in
      let block_at =
        if String.length line > 0 && line.[0] = 'B' then fun i -> i = 0
        else if String.starts_with ~prefix:"jmp B" trimmed then fun i ->
          i = lead + 4
        else if String.starts_with ~prefix:"br " trimmed then fun i ->
          i >= 2 && String.equal (String.sub line (i - 2) 2) ", "
        else fun _ -> false
      in
      copy line ~block_at)
    (String.split_on_char '\n' text);
  Buffer.contents out
