(* The benchmark's in-process half.  perfbench/run.py drives the qsynth
   executable and calls these subcommands for the parts that need the
   library itself:

     pb gen      --workload build --seed N --count K       request lines
     pb expect   --index-dir D < requests                  expected answers
     pb indexes  --index-dir D                             index gates
     pb serve    --qsynth Q --index-dir D --workload W ...  one daemon run
     pb layers   --index-dir D --seed N                    per-layer probes

   Every input is generated here from the seed; the program under test
   only ever receives the generated requests.  Results are one JSON
   object on stdout. *)

open Synthesis
module Json = Telemetry.Json
module Protocol = Server.Protocol

let libraries = [ "paper18"; "nct"; "nft" ]
let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pb: " ^ s);
      exit 2)
    fmt

(* {1 Arguments: [--key value] pairs after the subcommand} *)

let args =
  lazy
    (let tbl = Hashtbl.create 16 in
     let argv = Sys.argv in
     let rec go i =
       if i + 1 < Array.length argv && String.starts_with ~prefix:"--" argv.(i)
       then begin
         Hashtbl.replace tbl
           (String.sub argv.(i) 2 (String.length argv.(i) - 2))
           argv.(i + 1);
         go (i + 2)
       end
       else if i < Array.length argv then die "unexpected argument %S" argv.(i)
     in
     go 2;
     tbl)

let arg_opt k = Hashtbl.find_opt (Lazy.force args) k

let arg k =
  match arg_opt k with Some v -> v | None -> die "missing --%s" k

let arg_int k = int_of_string (arg k)
let arg_float k = float_of_string (arg k)
let index_path l = Filename.concat (arg "index-dir") (l ^ ".idx")

(* {1 Statistics} *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile of a sorted array *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let mean l =
  match l with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. l /. float (List.length l)

let num f = if Float.is_nan f then Json.Null else Json.Float f

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* mean seconds per call of [f] over [xs] *)
let per_call f xs =
  let t0 = now () in
  List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  (now () -. t0) /. float (max 1 (List.length xs))

(* {1 The universe: every function of S8, as a truth-table column} *)

let columns =
  lazy
    (let a = Array.init 8 Fun.id in
     let acc = ref [ Array.copy a ] in
     let swap i j =
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     in
     let rec next () =
       let i = ref 6 in
       while !i >= 0 && a.(!i) > a.(!i + 1) do decr i done;
       if !i >= 0 then begin
         let j = ref 7 in
         while a.(!j) < a.(!i) do decr j done;
         swap !i !j;
         let lo = ref (!i + 1) and hi = ref 7 in
         while !lo < !hi do
           swap !lo !hi;
           incr lo;
           decr hi
         done;
         acc := Array.copy a :: !acc;
         next ()
       end
     in
     next ();
     Array.of_list (List.rev !acc))

let spec_of col = String.concat "," (Array.to_list (Array.map string_of_int col))
let revfun_of col = Reversible.Revfun.of_outputs ~bits:3 (Array.to_list col)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Zipf(1) over ranks 0..n-1 by inverse CDF *)
let zipf rng n =
  let cum = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. float (k + 1));
    cum.(k) <- !total
  done;
  fun () ->
    let u = Random.State.float rng !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

(* {1 Engines: the in-process twin of each transport's configuration} *)

let memo f =
  let t = Hashtbl.create 4 in
  fun k ->
    match Hashtbl.find_opt t k with
    | Some v -> v
    | None ->
        let v = f k in
        Hashtbl.replace t k v;
        v

let library_of = memo (fun name -> Library.of_name name)

let index_of =
  memo (fun name -> Census_index.load_mmap (library_of name) (index_path name))

(* What each transport answers.  [synth --json --library L --index
   L.idx] holds L's complete index; [serve --index paper18.idx
   --also-library nct --also-library nft] holds paper18's and answers
   the other libraries with a cold forward search. *)
let solve ~oneshot (req : Mce.Request.t) =
  let name = req.Mce.Request.library in
  if oneshot || String.equal name "paper18" then
    Mce.solve ~index:(index_of name) (library_of name) req
  else Mce.solve (library_of name) req

(* paper18 functions grouped by minimal cost, read off the index *)
let paper18_by_cost () =
  let index = index_of "paper18" in
  let buckets = Array.make 14 [] in
  Array.iter
    (fun col ->
      let _, rem = Mce.strip_not_layer (revfun_of col) in
      match Census_index.find index rem with
      | Some (c, _) -> buckets.(c) <- col :: buckets.(c)
      | None -> die "paper18 index misses %s" (spec_of col))
    (Lazy.force columns);
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

(* {1 Workload draws: an endless, seeded request stream} *)

let request ?task ~library ~max_depth col =
  Mce.Request.make ?task ~library ~max_depth (spec_of col)

(* Every function of S8 ordered by its minimal cost under [name]. *)
let sorted_by_cost name =
  let cost col =
    match (solve ~oneshot:true (request ~library:name ~max_depth:13 col)).body with
    | Ok { Mce.Response.payload = Mce.Response.Synthesized { cost; _ }; _ } -> cost
    | _ -> die "%s index cannot answer %s" name (spec_of col)
  in
  let a = Array.map (fun col -> (cost col, col)) (Lazy.force columns) in
  Array.stable_sort (fun (x, _) (y, _) -> compare x y) a;
  Array.map snd a

(* Uniform over [sorted], stratified: the j-th of every [m] draws comes
   from the j-th of [m] equal slices, so each block of a draw carries
   the universe's cost mix and forward-search time does not drift with
   the seed's luck. *)
let stratified rng sorted m =
  let n = Array.length sorted and j = ref 0 in
  fun () ->
    let lo = !j * n / m and hi = (!j + 1) * n / m in
    j := (!j + 1) mod m;
    sorted.(lo + Random.State.int rng (hi - lo))

(* Draws are balanced: each block holds every request kind in its fixed
   share, shuffled, so a run's composition does not vary with the seed
   and only which functions are asked and when does. *)
let blocks rng kinds make =
  let q = Queue.create () in
  fun () ->
    if Queue.is_empty q then
      Array.iter (fun k -> Queue.push k q) (shuffle rng (Array.copy kinds));
    make (Queue.pop q)

(* serve-mixed asks paper18 Count_witnesses/Enumerate at costs
   1..mixed_max_cost.  Cost-7 requests run about 1 s and two of them
   overlapping doubles the daemon's memory, so with them in the mix p90
   and peak RSS swung by 78% and 20% from seed to seed. *)
let mixed_max_cost = 6

let draw workload seed : unit -> Mce.Request.t =
  let cols = Lazy.force columns in
  match workload with
  | "serve-hot" ->
      let rng = Random.State.make [| seed; 1 |] in
      let order = shuffle rng (Array.copy cols) in
      let rank = zipf rng (Array.length order) in
      fun () -> request ~library:"paper18" ~max_depth:13 order.(rank ())
  | "serve-mixed" ->
      let rng = Random.State.make [| seed; 2 |] in
      let by_cost = paper18_by_cost () in
      let share = 2 * mixed_max_cost in
      let uniform name = stratified rng (sorted_by_cost name) share in
      let paper18 = uniform "paper18" and nct = uniform "nct" and nft = uniform "nft" in
      let kinds =
        Array.concat
          [
            Array.make share `Paper18;
            Array.make share `Nct;
            Array.make share `Nft;
            Array.init share (fun i ->
                `Forward (1 + (i mod mixed_max_cost), i < mixed_max_cost));
          ]
      in
      blocks rng kinds (function
        | `Paper18 -> request ~library:"paper18" ~max_depth:13 (paper18 ())
        | `Nct -> request ~library:"nct" ~max_depth:8 (nct ())
        | `Nft -> request ~library:"nft" ~max_depth:7 (nft ())
        | `Forward (cost, count) ->
            let task =
              if count then Mce.Request.Count_witnesses
              else Mce.Request.Enumerate { limit = 4 }
            in
            request ~task ~library:"paper18" ~max_depth:cost
              (pick rng by_cost.(cost)))
  | "build" ->
      let rng = Random.State.make [| seed; 3 |] in
      blocks rng (Array.of_list libraries) (fun library ->
          request ~library ~max_depth:13 (pick rng cols))
  | w -> die "unknown workload %S" w

let take n next = List.init n (fun _ -> next ())
let to_frame req = Json.to_string (Mce.Request.to_json req)

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let request_of_line l =
  match Mce.Request.of_json (Json.of_string l) with
  | Ok r -> r
  | Error e -> die "bad request line: %s" e

(* {1 gen / expect / indexes} *)

let cmd_gen () =
  let next = draw (arg "workload") (arg_int "seed") in
  List.iter (fun r -> print_endline (to_frame r)) (take (arg_int "count") next)

let cmd_expect () =
  List.iter
    (fun l ->
      print_endline
        (Mce.Response.to_string (solve ~oneshot:true (request_of_line l))))
    (read_lines stdin)

(* Full witness replay of each emitted index, plus the facts the gates
   compare against published spectra. *)
let cmd_indexes () =
  let one name =
    let lib = Library.of_name name in
    match Census_index.load ~verify:Census_index.Full lib (index_path name) with
    | idx ->
        ( name,
          Json.Obj
            [
              ("ok", Json.Bool true);
              ("complete", Json.Bool (Census_index.is_complete idx));
              ("coverage", Json.Int (Census_index.coverage idx));
              ( "histogram",
                Json.List
                  (Array.to_list
                     (Array.map (fun n -> Json.Int n) (Census_index.histogram idx)))
              );
            ] )
    | exception e ->
        ( name,
          Json.Obj
            [ ("ok", Json.Bool false); ("error", Json.String (Printexc.to_string e)) ]
        )
  in
  print_endline (Json.to_string (Json.Obj (List.map one libraries)))

(* {1 serve: one daemon, its set-up time, an open-loop load, the gates} *)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* The daemon this process started and has not reaped; killed on any
   exit, [die] included, so no run leaves one behind. *)
let daemon = ref None

let kill_daemon () =
  match !daemon with
  | Some pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      daemon := None
  | None -> ()

let () = at_exit kill_daemon

let spawn_daemon ~qsynth ~socket ~trace_file ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let argv =
    [ qsynth; "serve"; "--socket"; socket; "--index"; index_path "paper18";
      "--also-library"; "nct"; "--also-library"; "nft" ]
    @ match trace_file with Some f -> [ "--trace-file"; f ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process qsynth (Array.of_list argv) (Lazy.force devnull) out out
  in
  Unix.close out;
  daemon := Some pid;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      daemon := None;
      true

(* A traced daemon stamps a trace id into each answer; compare without it. *)
let canonical ~traced body =
  if not traced then body
  else
    match Mce.Response.of_string body with
    | Ok r -> Mce.Response.to_string (Mce.Response.with_trace None r)
    | Error _ -> body

(* Launch to first correct answer: connect as soon as the socket
   accepts, ask one fixed question, compare the bytes.  A daemon that
   exits, stays silent or answers wrongly is an [Error], which the run
   reports as a failed gate. *)
let first_answer pid ~socket ~traced =
  let probe = Mce.Request.make ~id:"setup" ~max_depth:13 "0,1,2,3,4,5,7,6" in
  let expect = Mce.Response.to_string (solve ~oneshot:false probe) in
  let deadline = now () +. 60. in
  let ask fd =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Protocol.write_frame fd (to_frame probe);
    Protocol.read_frame fd
  in
  let rec attempt () =
    if exited pid then Error "daemon exited during start-up"
    else if now () > deadline then Error "daemon did not answer within 60 s"
    else
      match Protocol.connect socket with
      | exception Unix.Unix_error _ ->
          Thread.delay 0.0002;
          attempt ()
      | fd -> (
          match ask fd with
          | exception Unix.Unix_error _ -> attempt ()
          | Ok body when String.equal (canonical ~traced body) expect -> Ok ()
          | Ok body -> Error ("wrong first answer: " ^ body)
          | Error e -> Error ("first answer: " ^ Protocol.read_error_to_string e))
  in
  attempt ()

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = snd (Unix.waitpid [] pid) in
  daemon := None;
  status = Unix.WEXITED 0

(* The line [key: ...] of /proc/PID/status, or None off Linux. *)
let proc_status pid key =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:(key ^ ":") l -> Some l
    | _ -> go ()
    | exception End_of_file -> None
  in
  go ()

let peak_rss_mb pid =
  match proc_status pid "VmHWM" with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
  | None -> Float.nan

(* Whether [pid] has a handler for SIGTERM (signal 15, bit 14 of the
   SigCgt mask); None when the mask cannot be read. *)
let catches_sigterm pid =
  Option.map
    (fun l -> Scanf.sscanf l "SigCgt: %Lx" (fun m -> Int64.logand m 0x4000L <> 0L))
    (proc_status pid "SigCgt")

(* [qsynth serve] answers from the moment its socket listens but installs
   its SIGTERM handler only after that, so a SIGTERM sent right after the
   first answer can kill it instead of draining it.  Before a launch is
   stopped, wait (at most 10 s) for the handler.  True when the daemon
   had answered before its handler was in place. *)
let await_sigterm_handler pid =
  let early = catches_sigterm pid = Some false in
  let deadline = now () +. 10. in
  while catches_sigterm pid = Some false && now () < deadline do
    Thread.delay 0.001
  done;
  early

(* the request index out of a response's leading ["id":"rN"] *)
let id_of body =
  let pre = "\"id\":\"r" in
  let n = String.length body and m = String.length pre in
  let rec find i =
    if i + m > n then None
    else if String.sub body i m = pre then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < n && body.[!stop] >= '0' && body.[!stop] <= '9' do incr stop done;
      int_of_string_opt (String.sub body start (!stop - start))

type load = {
  reqs : Mce.Request.t array;
  due : float array;  (** scheduled send times *)
  sent : float array;
  recv : float array;  (** nan: never answered *)
  bodies : string array;
  send_errors : int;
}

(* Open loop: Poisson arrivals at [rps] for [seconds], spread over
   [conns] pipelined connections.  One thread sends on schedule; one
   reader thread multiplexes every connection, so the driver uses two
   threads whatever [conns] is. *)
let run_load ~socket ~conns ~rps ~seconds ~seed next =
  let rng = Random.State.make [| seed; 7 |] in
  let offsets =
    let rec go t acc =
      let t = t +. (-.log (1. -. Random.State.float rng 1.) /. rps) in
      if t >= seconds then Array.of_list (List.rev acc) else go t (t :: acc)
    in
    go 0. []
  in
  let n = Array.length offsets in
  let reqs =
    Array.init n (fun i ->
        { (next ()) with Mce.Request.id = Some (Printf.sprintf "r%d" i) })
  in
  let frames = Array.map to_frame reqs in
  let sent = Array.make n Float.nan in
  let recv = Array.make n Float.nan in
  let bodies = Array.make n "" in
  let schedule () =
    let start = now () +. 0.005 in
    Array.map (fun o -> start +. o) offsets
  in
  let opened = ref [] in
  match
    Array.init conns (fun _ ->
        let fd = Protocol.connect socket in
        opened := fd :: !opened;
        fd)
  with
  | exception Unix.Unix_error _ ->
      (* no daemon to talk to: every request is a failed send *)
      List.iter Unix.close !opened;
      { reqs; due = schedule (); sent; recv; bodies; send_errors = n }
  | fds ->
  let answered = Atomic.make 0 in
  let reader_done = Atomic.make false and stop = Atomic.make false in
  let reader () =
    let live = ref (Array.to_list fds) in
    while !live <> [] && not (Atomic.get stop) do
      let ready, _, _ =
        try Unix.select !live [] [] 1.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          match Protocol.read_frame fd with
          | Error _ -> live := List.filter (fun f -> f != fd) !live
          | Ok body -> (
              let t = now () in
              match id_of body with
              | Some i when i < n && Float.is_nan recv.(i) ->
                  recv.(i) <- t;
                  bodies.(i) <- body;
                  Atomic.incr answered
              | _ -> ()))
        ready
    done;
    Atomic.set reader_done true
  in
  let rd = Thread.create reader () in
  let due = schedule () in
  let send_errors = ref 0 in
  Array.iteri
    (fun i at ->
      let dt = at -. now () in
      if dt > 0. then Thread.delay dt;
      (try Protocol.write_frame fds.(i mod conns) frames.(i)
       with Unix.Unix_error _ -> incr send_errors);
      sent.(i) <- now ())
    due;
  (* a daemon that died closes its end and ends the reader early; one
     that hangs is given up on after 30 s *)
  let drain_deadline = now () +. 30. in
  while
    Atomic.get answered < n - !send_errors
    && (not (Atomic.get reader_done))
    && now () < drain_deadline
  do
    Thread.delay 0.002
  done;
  Array.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
    fds;
  Atomic.set stop true;
  Thread.join rd;
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
  { reqs; due; sent; recv; bodies; send_errors = !send_errors }

(* Byte-identity gate: every index-served request is re-answered in
   process; of the forward-search ones, a seeded sample of [sample]. *)
let check ~traced ~seed ~sample l =
  let memo = Hashtbl.create 1024 in
  let expected (req : Mce.Request.t) =
    let key = Mce.Request.key req in
    let base =
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r = solve ~oneshot:false { req with Mce.Request.id = None } in
          Hashtbl.replace memo key r;
          r
    in
    Mce.Response.to_string (Mce.Response.with_id req.Mce.Request.id base)
  in
  let rng = Random.State.make [| seed; 11 |] in
  let forward =
    List.filter
      (fun i ->
        let r = l.reqs.(i) in
        not (String.equal r.Mce.Request.library "paper18"
             && r.Mce.Request.task = Mce.Request.Synthesize))
      (List.init (Array.length l.reqs) Fun.id)
  in
  let chosen = Hashtbl.create 64 in
  let fa = shuffle rng (Array.of_list forward) in
  Array.iteri (fun k i -> if k < sample then Hashtbl.replace chosen i ()) fa;
  let checked = ref 0 and wrong = ref 0 and errors = ref 0 in
  Array.iteri
    (fun i (req : Mce.Request.t) ->
      if not (Float.is_nan l.recv.(i)) then begin
        (match Mce.Response.of_string l.bodies.(i) with
        | Ok { Mce.Response.body = Ok _; _ } -> ()
        | _ -> incr errors);
        let index_served =
          String.equal req.Mce.Request.library "paper18"
          && req.Mce.Request.task = Mce.Request.Synthesize
        in
        if index_served || Hashtbl.mem chosen i then begin
          incr checked;
          if not (String.equal (canonical ~traced l.bodies.(i)) (expected req))
          then incr wrong
        end
      end)
    l.reqs;
  (!checked, !wrong, !errors)

(* A load step meets the limit when every request is answered with an
   ok body (a refusal misses it) and p90 from schedule stays within the
   limit, which a growing backlog breaks. *)
let meets ~limit_ms l =
  let lat = ref [] and bad = ref l.send_errors in
  Array.iteri
    (fun i r ->
      if Float.is_nan r then incr bad
      else begin
        lat := (r -. l.due.(i)) :: !lat;
        match Mce.Response.of_string l.bodies.(i) with
        | Ok { Mce.Response.body = Ok _; _ } -> ()
        | _ -> incr bad
      end)
    l.recv;
  !bad = 0 && !lat <> [] && 1000. *. percentile (sorted !lat) 0.9 <= limit_ms

(* Highest offered rate that meets the limit: double from [from] until a
   step misses, then bisect three times.  Each step lasts at least 2 s
   and offers at least 100 requests, so its p90 has 10 samples beyond. *)
let max_rps ~socket ~conns ~seed ~limit_ms ~from next =
  let k = ref 0 in
  let step rps =
    incr k;
    meets ~limit_ms
      (run_load ~socket ~conns ~rps ~seconds:(Float.max 2. (100. /. rps))
         ~seed:(seed + !k) next)
  in
  let rec up lo = if !k < 12 && step (2. *. lo) then up (2. *. lo) else lo in
  let rec bisect lo hi n =
    if n = 0 then lo
    else
      let mid = (lo +. hi) /. 2. in
      if step mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
  in
  if not (step from) then 0.
  else
    let lo = up from in
    bisect lo (2. *. lo) 3

let cmd_serve () =
  let qsynth = arg "qsynth" and workload = arg "workload" in
  let seed = arg_int "seed" and launches = arg_int "launches" in
  let socket = arg "socket" and trace_file = arg_opt "trace-file" in
  let traced = trace_file <> None in
  let log = arg "log" in
  (* set-up: [launches] daemons, each timed from spawn to its first
     correct answer; every one but the last is stopped again.  A launch
     that fails is listed in [setup_errors], which run.py records as a
     failed gate, and the next launch goes ahead. *)
  let errors = ref [] and early = ref 0 in
  let rec launch k acc =
    let t0 = now () in
    let pid = spawn_daemon ~qsynth ~socket ~trace_file ~log in
    let live =
      match first_answer pid ~socket ~traced with
      | Error e ->
          errors := e :: !errors;
          kill_daemon ();
          None
      | Ok () ->
          let dt = now () -. t0 in
          if await_sigterm_handler pid then incr early;
          Some (pid, dt)
    in
    let acc = match live with Some (_, dt) -> dt :: acc | None -> acc in
    if k = 1 then (Option.map fst live, List.rev acc)
    else begin
      (match live with
      | Some (pid, _) when not (stop_daemon pid) ->
          errors := "daemon did not exit cleanly on SIGTERM after start-up" :: !errors
      | _ -> ());
      launch (k - 1) acc
    end
  in
  let pid, setup = launch launches [] in
  let setup_fields =
    [
      ("setup_s", Json.List (List.map (fun s -> Json.Float s) setup));
      ("setup_errors", Json.List (List.rev_map (fun e -> Json.String e) !errors));
      ("setup_before_sigterm_handler", Json.Int !early);
    ]
  in
  match pid with
  | None -> print_endline (Json.to_string (Json.Obj setup_fields))
  | Some pid ->
  let l =
    run_load ~socket ~conns:(arg_int "conns") ~rps:(arg_float "rps")
      ~seconds:(arg_float "seconds") ~seed (draw workload seed)
  in
  let rss = peak_rss_mb pid in
  let ladder =
    match arg_opt "ladder-limit-ms" with
    | None -> Float.nan
    | Some limit ->
        max_rps ~socket ~conns:(arg_int "conns") ~seed
          ~limit_ms:(float_of_string limit) ~from:(arg_float "rps")
          (draw workload seed)
  in
  let clean_exit = stop_daemon pid in
  let checked, wrong, errors =
    check ~traced ~seed ~sample:(arg_int "sample") l
  in
  let n = Array.length l.reqs in
  let lat = ref [] and late = ref [] in
  Array.iteri
    (fun i r ->
      late := (l.sent.(i) -. l.due.(i)) :: !late;
      if not (Float.is_nan r) then lat := (r -. l.due.(i)) :: !lat)
    l.recv;
  let lat_ms = List.map (fun s -> 1000. *. s) !lat in
  let late = sorted !late in
  let answered = List.length lat_ms in
  print_endline
    (Json.to_string
       (Json.Obj
          (setup_fields
          @ [
            ("sent", Json.Int n);
            ("answered", Json.Int answered);
            ("send_errors", Json.Int l.send_errors);
            ("error_bodies", Json.Int errors);
            ("checked", Json.Int checked);
            ("wrong", Json.Int wrong);
            ("clean_exit", Json.Bool clean_exit);
            ("peak_rss_mb", num rss);
            ("latency_ms", Json.List (List.map (fun x -> Json.Float x) lat_ms));
            ("lateness_p99_ms", num (1000. *. percentile late 0.99));
            ("max_rps", num ladder);
          ])))

(* {1 layers: benchmark-side timers around each module's public calls} *)

let cmd_layers () =
  let seed = arg_int "seed" in
  let out = ref [] in
  let put name v = out := (name, num v) :: !out in
  (* Search and Fmcf: the quotient census of each library to its
     diameter (13 bounds all three), and the paper's raw depth-7 run *)
  let census tag lib ~quotient ~max_depth =
    let busy = ref 0. in
    let search =
      if quotient then Search.create ~symmetry:(Symmetry.create lib) lib
      else Search.create lib
    in
    let rec go () =
      if Search.depth search < max_depth then begin
        let frontier, dt = time (fun () -> Search.step_handles search) in
        busy := !busy +. dt;
        if Array.length frontier > 0 then go ()
      end
    in
    go ();
    put ("search.expand_s." ^ tag) !busy;
    put ("search.states." ^ tag) (float (Search.size search));
    put ("search.arena_bytes." ^ tag) (float (Search.arena_bytes search));
    (match Search.quotient_collapsed search with
    | Some (orbits, hits) ->
        put ("search.quotient_hit_ratio." ^ tag)
          (float hits /. float (orbits + hits))
    | None -> ());
    Gc.compact ();
    let c, run_s = time (fun () -> Fmcf.run ~max_depth ~quotient lib) in
    put ("fmcf.extract_s." ^ tag) (run_s -. !busy);
    c
  in
  ignore (census "raw7" (Library.of_name "paper18") ~quotient:false ~max_depth:7);
  Gc.compact ();
  let dir = arg "index-dir" in
  List.iter
    (fun name ->
      let lib = Library.of_name name in
      let c = census name lib ~quotient:true ~max_depth:13 in
      let idx, build_s = time (fun () -> Census_index.build c) in
      let path = Filename.concat dir ("layers-" ^ name ^ ".idx") in
      let (), save_s = time (fun () -> Census_index.save idx path) in
      let loads =
        List.init 5 (fun _ -> snd (time (fun () -> Census_index.load_mmap lib path)))
      in
      put ("census_index.build_s." ^ name) build_s;
      put ("census_index.save_s." ^ name) save_s;
      put ("census_index.bytes." ^ name) (float (Unix.stat path).Unix.st_size);
      put ("census_index.load_s." ^ name) (percentile (sorted loads) 0.5))
    libraries;
  (* the serve-hot frames through each layer the daemon runs them by *)
  let index = index_of "paper18" and p18 = library_of "paper18" in
  let hot =
    List.mapi
      (fun i r -> { r with Mce.Request.id = Some (Printf.sprintf "r%d" i) })
      (take 20_000 (draw "serve-hot" seed))
  in
  let rems =
    List.map
      (fun r ->
        match Mce.Request.target r with
        | Ok f -> snd (Mce.strip_not_layer f)
        | Error m -> die "%s" m)
      hot
  in
  put "census_index.find_us" (1e6 *. per_call (Census_index.find index) rems);
  put "mce.solve.index_us" (1e6 *. per_call (Mce.solve ~index p18) hot);
  let frames = List.map to_frame hot in
  put "mce.request_decode_us"
    (1e6 *. per_call (fun s -> Mce.Request.of_json (Json.of_string s)) frames);
  let resps = List.map (Mce.solve ~index p18) hot in
  put "mce.response_encode_us" (1e6 *. per_call Mce.Response.to_string resps);
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  put "protocol.roundtrip_us"
    (1e6
    *. per_call
         (fun f ->
           Protocol.write_frame a f;
           Protocol.read_frame b)
         frames);
  Unix.close a;
  Unix.close b;
  (* one balanced block of the serve-mixed draw through Mce.solve *)
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (r : Mce.Request.t) ->
      let kind =
        match r.Mce.Request.task with
        | Mce.Request.Synthesize -> "synthesize"
        | Mce.Request.Count_witnesses -> "count"
        | Mce.Request.Enumerate _ -> "enumerate"
      in
      if not (String.equal kind "synthesize" && String.equal r.library "paper18")
      then begin
        let key = kind ^ "." ^ r.Mce.Request.library in
        let _, dt = time (fun () -> solve ~oneshot:false r) in
        Hashtbl.replace groups key
          (dt :: Option.value ~default:[] (Hashtbl.find_opt groups key))
      end)
    (take (8 * mixed_max_cost) (draw "serve-mixed" seed));
  Hashtbl.iter
    (fun key dts -> put ("mce.solve.forward_ms." ^ key) (1000. *. mean dts))
    groups;
  print_endline (Json.to_string (Json.Obj (List.rev !out)))

let () =
  if Array.length Sys.argv < 2 then die "usage: pb SUBCOMMAND [--key value ...]";
  (* a daemon that dies mid-load must show as failed sends, not kill pb *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Sys.argv.(1) with
  | "gen" -> cmd_gen ()
  | "expect" -> cmd_expect ()
  | "indexes" -> cmd_indexes ()
  | "serve" -> cmd_serve ()
  | "layers" -> cmd_layers ()
  | c -> die "unknown subcommand %S" c
