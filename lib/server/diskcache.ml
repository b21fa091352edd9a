(* Record format (all lengths in ASCII decimal, '\n'-terminated):

     slo-diskcache 1\n
     <key length>\n
     <key bytes>\n
     <md5 hex of payload>\n
     <payload length>\n
     <payload bytes>

   The file name is md5(key) under a 2-hex-char fanout directory; the
   embedded key guards against digest collisions and mis-filed records,
   the embedded payload digest against truncation and bit rot. *)

type t = {
  cache_dir : string;
  lock : Mutex.t; (* temp-name sequence only *)
  mutable seq : int;
}

let magic = "slo-diskcache 1"

let create ~dir =
  Slo_util.Files.mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  { cache_dir = dir; lock = Mutex.create (); seq = 0 }

let dir t = t.cache_dir

let path_of_key t key =
  let h = Digest.to_hex (Digest.string key) in
  Filename.concat (Filename.concat t.cache_dir (String.sub h 0 2)) (h ^ ".rec")

let read_line_opt ic = try Some (input_line ic) with End_of_file -> None

let read_exact ic n =
  try Some (really_input_string ic n) with End_of_file -> None

let load_verified ic ~key =
  let ( let* ) = Option.bind in
  let* m = read_line_opt ic in
  if m <> magic then None
  else
    let* klen = Option.bind (read_line_opt ic) int_of_string_opt in
    if klen < 0 || klen > Protocol.max_frame_bytes then None
    else
      let* stored_key = read_exact ic klen in
      let* _nl = read_exact ic 1 in
      if stored_key <> key then None
      else
        let* digest = read_line_opt ic in
        let* plen = Option.bind (read_line_opt ic) int_of_string_opt in
        if plen < 0 || plen > Protocol.max_frame_bytes then None
        else
          let* payload = read_exact ic plen in
          if Digest.to_hex (Digest.string payload) <> digest then None
          else Some payload

let find t ~key =
  let path = path_of_key t key in
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
    let r =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          try load_verified ic ~key with Sys_error _ -> None)
    in
    match r with
    | Some _ as hit -> hit
    | None ->
      (* corrupt or foreign record: drop it so it is not re-verified on
         every subsequent miss *)
      (try Sys.remove path with Sys_error _ -> ());
      None)

let store t ~key payload =
  let path = path_of_key t key in
  let tmp =
    Mutex.lock t.lock;
    let n = t.seq in
    t.seq <- n + 1;
    Mutex.unlock t.lock;
    Filename.concat t.cache_dir
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) n)
  in
  try
    Slo_util.Files.mkdir_p (Filename.dirname path);
    let oc = open_out_bin tmp in
    (try
       output_string oc magic;
       output_char oc '\n';
       output_string oc (string_of_int (String.length key));
       output_char oc '\n';
       output_string oc key;
       output_char oc '\n';
       output_string oc (Digest.to_hex (Digest.string payload));
       output_char oc '\n';
       output_string oc (string_of_int (String.length payload));
       output_char oc '\n';
       output_string oc payload;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ())
