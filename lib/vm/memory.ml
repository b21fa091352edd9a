exception Fault of string

let globals_base = 0x1000
let stack_limit = 0x20_0000
let stack_top = 0x40_0000
let heap_base_addr = 0x40_0000

type t = {
  mutable buf : Bytes.t;
  mutable globals_next : int;
  mutable heap_next : int;
  allocs : (int, int) Hashtbl.t;
  freed : (int, unit) Hashtbl.t;
}

let create () =
  {
    buf = Bytes.make (8 * 1024 * 1024) '\000';
    globals_next = globals_base;
    heap_next = heap_base_addr;
    allocs = Hashtbl.create 64;
    freed = Hashtbl.create 64;
  }

let ensure t limit =
  let len = Bytes.length t.buf in
  if limit > len then begin
    let new_len = max limit (len * 2) in
    if new_len > 1 lsl 30 then raise (Fault "VM out of memory (1 GiB cap)");
    let nb = Bytes.make new_len '\000' in
    Bytes.blit t.buf 0 nb 0 len;
    t.buf <- nb
  end

let align_up x a = (x + a - 1) / a * a

let alloc_global t ~size ~align =
  let a = align_up t.globals_next (max 1 align) in
  if a + size > stack_limit then raise (Fault "globals region exhausted");
  t.globals_next <- a + size;
  ensure t (a + size);
  a

let alloc_heap t ~size ~zero =
  let a = align_up t.heap_next 16 in
  let size = max size 1 in
  t.heap_next <- a + size;
  ensure t (a + size);
  if zero then Bytes.fill t.buf a size '\000';
  Hashtbl.replace t.allocs a size;
  a

let free_heap t addr =
  if addr = 0 then ()
  else if not (Hashtbl.mem t.allocs addr) then
    raise (Fault (Printf.sprintf "free of invalid pointer 0x%x" addr))
  else if Hashtbl.mem t.freed addr then
    raise (Fault (Printf.sprintf "double free of 0x%x" addr))
  else Hashtbl.replace t.freed addr ()

let alloc_size t addr = Hashtbl.find_opt t.allocs addr

let check t addr size =
  if addr < globals_base then
    raise (Fault (Printf.sprintf "null-page access at 0x%x" addr));
  ensure t (addr + size)

let load_int t ~addr ~size =
  check t addr size;
  let b = t.buf in
  match size with
  | 1 ->
    let v = Char.code (Bytes.get b addr) in
    if v >= 0x80 then v - 0x100 else v
  | 2 ->
    let v = Char.code (Bytes.get b addr) lor (Char.code (Bytes.get b (addr + 1)) lsl 8) in
    if v >= 0x8000 then v - 0x10000 else v
  | 4 ->
    let v = Int32.to_int (Bytes.get_int32_le b addr) in
    v
  | 8 -> Int64.to_int (Bytes.get_int64_le b addr)
  | _ -> raise (Fault (Printf.sprintf "bad load size %d" size))

let store_int t ~addr ~size v =
  check t addr size;
  let b = t.buf in
  match size with
  | 1 -> Bytes.set b addr (Char.chr (v land 0xff))
  | 2 ->
    Bytes.set b addr (Char.chr (v land 0xff));
    Bytes.set b (addr + 1) (Char.chr ((v lsr 8) land 0xff))
  | 4 -> Bytes.set_int32_le b addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le b addr (Int64.of_int v)
  | _ -> raise (Fault (Printf.sprintf "bad store size %d" size))

let load_f32 t ~addr =
  check t addr 4;
  Int32.float_of_bits (Bytes.get_int32_le t.buf addr)

let store_f32 t ~addr v =
  check t addr 4;
  Bytes.set_int32_le t.buf addr (Int32.bits_of_float v)

let load_f64 t ~addr =
  check t addr 8;
  Int64.float_of_bits (Bytes.get_int64_le t.buf addr)

let store_f64 t ~addr v =
  check t addr 8;
  Bytes.set_int64_le t.buf addr (Int64.bits_of_float v)

let blit t ~dst ~src ~len =
  if len > 0 then begin
    check t src len;
    check t dst len;
    Bytes.blit t.buf src t.buf dst len
  end

let fill t ~dst ~byte ~len =
  if len > 0 then begin
    check t dst len;
    Bytes.fill t.buf dst len (Char.chr (byte land 0xff))
  end

let read_string t addr =
  check t addr 1;
  let buf = Buffer.create 16 in
  let rec go a =
    ensure t (a + 1);
    let c = Bytes.get t.buf a in
    if c <> '\000' then begin
      Buffer.add_char buf c;
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let write_string t addr s =
  check t addr (String.length s + 1);
  Bytes.blit_string s 0 t.buf addr (String.length s);
  Bytes.set t.buf (addr + String.length s) '\000'
