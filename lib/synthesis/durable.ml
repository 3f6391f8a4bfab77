exception Corrupt of string
exception Mismatch of string

(* {1 CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)} *)

(* Slicing-by-8: table [k] advances the register over a byte followed by
   [k] zero bytes, so eight input bytes fold in one round of table
   lookups.  Identical values to the classic one-table byte loop, ~4x
   faster — the CRC is paid on every index save and every load. *)
let crc_tables =
  lazy
    (let t = Array.make_matrix 8 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(0).(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(k - 1).(n) in
         t.(k).(n) <- t.(0).(prev land 0xFF) lxor (prev lsr 8)
       done
     done;
     t)

let crc32_init = 0xFFFFFFFF

let crc32_feed init bytes ~off ~len =
  let t = Lazy.force crc_tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let c = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let lo = Int32.to_int (Bytes.get_int32_le bytes !i) land 0xFFFFFFFF in
    let hi = Int32.to_int (Bytes.get_int32_le bytes (!i + 4)) land 0xFFFFFFFF in
    let x = !c lxor lo in
    c :=
      t7.(x land 0xFF)
      lxor t6.((x lsr 8) land 0xFF)
      lxor t5.((x lsr 16) land 0xFF)
      lxor t4.(x lsr 24)
      lxor t3.(hi land 0xFF)
      lxor t2.((hi lsr 8) land 0xFF)
      lxor t1.((hi lsr 16) land 0xFF)
      lxor t0.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := t0.((!c lxor Char.code (Bytes.unsafe_get bytes !i)) land 0xFF) lxor (!c lsr 8);
    i := !i + 1
  done;
  !c

let crc32_finish c = c lxor 0xFFFFFFFF
let crc32 bytes ~off ~len = crc32_finish (crc32_feed crc32_init bytes ~off ~len)

(* {1 Atomic write} *)

let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Writes and fsyncs [bytes] to [tmp], removing it on error. *)
let write_tmp tmp bytes =
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  try
    let len = Bytes.length bytes in
    let written = ref 0 in
    while !written < len do
      written := !written + Unix.write fd bytes !written (len - !written)
    done;
    Unix.fsync fd;
    Unix.close fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_atomic path bytes =
  write_tmp (path ^ ".tmp") bytes;
  (* The injected "write_atomic" fault models a crash in the window
     where the temp file exists but the rename has not happened: a
     previous file at [path] must still load. *)
  Faultsim.hit "write_atomic";
  Unix.rename (path ^ ".tmp") path;
  fsync_dir path

(* {1 Reading} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)
