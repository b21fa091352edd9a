module Json = Slo_util.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die "cannot open %s: %s" path msg
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Json.of_string s with
    | j -> j
    | exception Json.Parse_error msg -> die "%s: %s" path msg)

let rows j =
  match Json.member "results" j with
  | Some (Json.List rs) -> rs
  | _ -> die "missing 'results' list"

let str_member key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> "?"

let num_member key j =
  match Json.member key j with
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None
