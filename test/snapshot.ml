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
