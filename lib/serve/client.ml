type endpoint = [ `Unix of string | `Tcp of string * int ]

type t = {
  fd : Unix.file_descr;
  reader : Framing.reader;
  mutable next_id : int;
}

let connect endpoint =
  (* A daemon that drops the connection must surface as EPIPE, not kill
     the client process with SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fd =
    match endpoint with
    | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e ->
         Unix.close fd;
         raise e);
      fd
    | `Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ ->
          (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_INET (addr, port));
         Unix.setsockopt fd Unix.TCP_NODELAY true
       with e ->
         Unix.close fd;
         raise e);
      fd
  in
  { fd; reader = Framing.reader fd; next_id = 1 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let fd t = t.fd

let send ?id t request =
  let id =
    match id with
    | Some id -> id
    | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id
  in
  Framing.write_json t.fd
    (Protocol.request_to_json ~id:(Obs.Json.Int id) request);
  id

let send_json t json = Framing.write_json t.fd json

let read_frame t =
  match Framing.read t.reader with
  | Framing.Frame payload -> Obs.Json.of_string payload
  | Framing.Closed -> Error "connection closed"
  | Framing.Truncated -> Error "truncated response frame"
  | Framing.Oversized len ->
    Error (Printf.sprintf "oversized response frame (%d bytes)" len)
  | Framing.Stopped ->
    (* Unreachable: the client never arms a receive timeout. *)
    Error "read interrupted"

let read_typed t = Result.bind (read_frame t) Protocol.frame_of_json

let collect t =
  let rec loop acc =
    match read_typed t with
    | Error _ as e -> e
    | Ok (_, frame) -> (
      let acc = frame :: acc in
      match frame with
      | Protocol.Done _ -> Ok (List.rev acc)
      | Protocol.Error { Protocol.code = Protocol.Failed; _ } ->
        (* A failed job still gets its [done] summary; keep reading so
           the unread terminator cannot desync the next request on this
           connection. *)
        loop acc
      | Protocol.Error _ ->
        (* Rejection-class errors (busy/draining/bad_*/unknown_type)
           are the whole response: nothing follows. *)
        Ok (List.rev acc)
      | _ -> loop acc)
  in
  loop []

(* A daemon that has closed the connection surfaces on the next write
   as EPIPE, or on a read as ECONNRESET: report it like any other closed
   stream instead of raising. *)
let closed_as_error f =
  try f ()
  with Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as e), _, _) ->
    Error ("connection closed: " ^ Unix.error_message e)

let request ?id t req =
  closed_as_error (fun () ->
      let _ = send ?id t req in
      collect t)

(* Open a telemetry subscription: returns the request id tagging every
   stream frame once the daemon acks.  Stream frames are then read with
   [read_typed] at the caller's pace. *)
let subscribe ?id ?(interval_ms = 500) t ~streams =
  closed_as_error (fun () ->
      let id =
        send ?id t (Protocol.Subscribe { Protocol.streams; interval_ms })
      in
      match read_typed t with
      | Ok (_, Protocol.Subscribed _) -> Ok id
      | Ok (_, Protocol.Error e) -> Error e.Protocol.message
      | Ok _ -> Error "unexpected frame before subscribe ack"
      | Error msg -> Error msg)

(* Close the subscription and drain any stream frames still in flight
   ahead of the ack, so the connection is clean for the next request. *)
let unsubscribe t =
  closed_as_error (fun () ->
      let _ = send t Protocol.Unsubscribe in
      let rec loop () =
        match read_typed t with
        | Ok (_, Protocol.Done _) -> Ok ()
        | Ok (_, Protocol.Error e) -> Error e.Protocol.message
        | Ok _ -> loop ()
        | Error msg -> Error msg
      in
      loop ())

let request_retrying t req =
  let rec go n =
    match request t req with
    | Ok [ Protocol.Error { Protocol.code = Protocol.Busy; retry_after_ms; _ } ]
      when n > 1 ->
      let ms = Option.value retry_after_ms ~default:10 in
      Thread.delay (float_of_int ms /. 1000.0);
      go (n - 1)
    | r -> r
  in
  go 10
