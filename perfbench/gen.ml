(* Open-loop traffic generator over one Unix-socket connection.

   One select loop sends every request when it falls due, whatever is
   still outstanding, and reads replies as they arrive.  The socket is
   non-blocking: requests the server has not taken yet wait in an output
   queue while the loop keeps reading replies, so a server that blocks
   on writing replies never deadlocks against the generator.  Latency is
   measured from the due time, not the send time, so a stall that delays
   later sends counts against them; how late the loop itself sent is
   kept separately.  A bulk job is the same loop with every request due
   at once and a bound on outstanding requests. *)

let now = Unix.gettimeofday

(* Everything received for one request id. *)
type slot = { mutable at : float; mutable line : string; mutable count : int }

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable obuf : Bytes.t;  (* [obuf.[ooff .. olen-1]]: bytes the socket has not taken *)
  mutable ooff : int;
  mutable olen : int;
  slots : (int, slot) Hashtbl.t;
  mutable next_id : int;
  mutable sent : int;
  mutable answered : int;  (* ids with at least one reply *)
  mutable strays : int;    (* replies naming no id this client sent *)
}

let connect ?(timeout = 10.0) path =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go ()
  in
  let fd = go () in
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Buffer.create 65536;
    obuf = Bytes.create 65536;
    ooff = 0;
    olen = 0;
    slots = Hashtbl.create 65536;
    next_id = 0;
    sent = 0;
    answered = 0;
    strays = 0;
  }

let on_line t line =
  match int_of_string_opt (Dt_serve.Protocol.response_id line) with
  | Some id when Hashtbl.mem t.slots id ->
      let s = Hashtbl.find t.slots id in
      s.count <- s.count + 1;
      if s.count = 1 then begin
        s.at <- now ();
        s.line <- line;
        t.answered <- t.answered + 1
      end
  | _ -> t.strays <- t.strays + 1

let chunk = Bytes.create 65536

let queued t = t.olen - t.ooff

(* Hand the socket as much of the output queue as it takes now. *)
let flush t =
  let rec go () =
    if queued t = 0 then begin
      t.ooff <- 0;
      t.olen <- 0
    end
    else
      match Unix.write t.fd t.obuf t.ooff (queued t) with
      | n ->
          t.ooff <- t.ooff + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let send t s =
  let len = String.length s in
  if t.olen + len > Bytes.length t.obuf then begin
    (* Move the unsent bytes to the front, growing the buffer if needed. *)
    let keep = queued t in
    let dst =
      if keep + len > Bytes.length t.obuf then Bytes.create (2 * (keep + len)) else t.obuf
    in
    Bytes.blit t.obuf t.ooff dst 0 keep;
    t.obuf <- dst;
    t.ooff <- 0;
    t.olen <- keep
  end;
  Bytes.blit_string s 0 t.obuf t.olen len;
  t.olen <- t.olen + len;
  flush t

(* Wait up to [timeout] seconds for replies, consume what arrived, and
   write queued requests as the socket takes them. *)
let pump t ~timeout =
  let writers = if queued t = 0 then [] else [ t.fd ] in
  match Unix.select [ t.fd ] writers [] (Float.max 0.0 timeout) with
  | [], [], _ -> ()
  | [], _, _ -> flush t
  | _ -> (
      flush t;
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> failwith "server closed the connection"
      | n ->
          Buffer.add_subbytes t.inbuf chunk 0 n;
          let data = Buffer.contents t.inbuf in
          let last = try String.rindex data '\n' with Not_found -> -1 in
          if last >= 0 then begin
            Buffer.clear t.inbuf;
            Buffer.add_substring t.inbuf data (last + 1)
              (String.length data - last - 1);
            List.iter (on_line t)
              (String.split_on_char '\n' (String.sub data 0 last))
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* One window of traffic: request [i] carries [payload.(i)] and is due
   [due.(i)] seconds after [start]. *)
type window = {
  start : float;
  due : float array;
  sent_at : float array;
  ids : int array;
}

(* [run t ~payload ~due ~outstanding ~grace] sends the window and
   returns once every request sent so far on the connection has a reply,
   or [grace] seconds after the last request fell due. *)
let run t ~payload ~due ~outstanding ~grace =
  let n = Array.length due in
  let ids = Array.init n (fun i -> t.next_id + i) in
  t.next_id <- t.next_id + n;
  Array.iter
    (fun id -> Hashtbl.replace t.slots id { at = nan; line = ""; count = 0 })
    ids;
  let sent_at = Array.make n nan in
  let start = now () in
  let deadline = start +. (if n = 0 then 0.0 else due.(n - 1)) +. grace in
  let i = ref 0 in
  let out = Buffer.create 65536 in
  let finished = ref false in
  while not !finished do
    let tnow = now () in
    Buffer.clear out;
    while
      !i < n
      && start +. due.(!i) <= tnow
      && t.sent - t.answered < outstanding
    do
      Buffer.add_string out (string_of_int ids.(!i));
      Buffer.add_char out ' ';
      Buffer.add_string out payload.(!i);
      Buffer.add_char out '\n';
      sent_at.(!i) <- tnow;
      t.sent <- t.sent + 1;
      incr i
    done;
    if Buffer.length out > 0 then send t (Buffer.contents out);
    let tnow = now () in
    if !i >= n && (t.answered >= t.sent || tnow > deadline) then finished := true
    else
      let timeout =
        if !i < n && t.sent - t.answered < outstanding then
          Float.min 0.05 (start +. due.(!i) -. tnow)
        else Float.min 0.05 (deadline -. tnow)
      in
      pump t ~timeout
  done;
  { start; due; sent_at; ids }

let slot t id = Hashtbl.find t.slots id

(* Reply kind of a request: [ok], [degraded], [overloaded], [error], or
   [none] when it was never answered. *)
let kind t id =
  let s = slot t id in
  if s.count = 0 then "none"
  else
    match String.split_on_char ' ' s.line with
    | _ :: k :: _ -> k
    | _ -> "malformed"

let answered_ok t id =
  match kind t id with "ok" | "degraded" -> true | _ -> false

(* Seconds from due to reply; infinite for a request not answered with
   a prediction, so it misses every latency limit. *)
let latency t w i =
  let id = w.ids.(i) in
  if answered_ok t id then (slot t id).at -. (w.start +. w.due.(i))
  else infinity

let latencies t w = Array.init (Array.length w.due) (latency t w)

let lateness w i = w.sent_at.(i) -. (w.start +. w.due.(i))

(* Ask the server to stop and wait for its acknowledgement. *)
let shutdown t =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.slots id { at = nan; line = ""; count = 0 };
  t.sent <- t.sent + 1;
  send t (Printf.sprintf "%d shutdown\n" id);
  let deadline = now () +. 30.0 in
  while (slot t id).count = 0 && now () < deadline do
    pump t ~timeout:0.05
  done;
  Unix.close t.fd
