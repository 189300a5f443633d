(** Minimal dependency-free HTTP/1.1 server over Unix sockets.

    Enough protocol for a monitoring surface: one request per
    connection (the response always says [Connection: close]),
    request-line + header parsing, [Content-Length] bodies, and
    percent-decoded query strings.  The accept loop is sequential — the
    middleware session it fronts is single-threaded anyway — and
    [max_requests] bounds it for tests and smoke jobs.

    Nothing here depends on the rest of the middleware; the handler is
    just [request -> response]. *)

type request = {
  meth : string;  (** uppercase, e.g. ["GET"] *)
  path : string;  (** decoded path, no query string *)
  query : (string * string) list;  (** decoded query parameters *)
  headers : (string * string) list;  (** keys lowercased *)
  body : string;
}

type response = { status : int; content_type : string; body : string }

let response ?(status = 200) ?(content_type = "text/plain; charset=utf-8")
    body =
  { status; content_type; body }

let reason_phrase = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let max_body_bytes = 1 lsl 20
let max_line_bytes = 16 * 1024
let max_headers = 100

(* A client that connects and then stalls would otherwise hold the
   sequential accept loop in [Unix.read] forever. *)
let read_timeout_s = 2.0

exception Bad_request of string

(* ------------------------------------------------------------------ *)
(* Percent decoding                                                     *)
(* ------------------------------------------------------------------ *)

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      (match s.[i] with
      | '+' ->
          Buffer.add_char b ' ';
          go (i + 1)
      | '%' when i + 2 < n -> (
          match (hex_value s.[i + 1], hex_value s.[i + 2]) with
          | Some hi, Some lo ->
              Buffer.add_char b (Char.chr ((hi * 16) + lo));
              go (i + 3)
          | _ ->
              Buffer.add_char b '%';
              go (i + 1))
      | c ->
          Buffer.add_char b c;
          go (i + 1))
    end
  in
  go 0;
  Buffer.contents b

let parse_query s =
  if s = "" then []
  else
    List.filter_map
      (fun kv ->
        if kv = "" then None
        else
          match String.index_opt kv '=' with
          | None -> Some (percent_decode kv, "")
          | Some i ->
              Some
                ( percent_decode (String.sub kv 0 i),
                  percent_decode
                    (String.sub kv (i + 1) (String.length kv - i - 1)) ))
      (String.split_on_char '&' s)

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
      ( percent_decode (String.sub target 0 i),
        parse_query (String.sub target (i + 1) (String.length target - i - 1))
      )

(* ------------------------------------------------------------------ *)
(* Buffered reading from a socket                                       *)
(* ------------------------------------------------------------------ *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

(* The reader is connection-local, so its cursor needs no lock. *)

(* false at EOF *)
let refill r =
  if r.pos < r.len then true
  else begin
    r.pos <- 0;
    r.len <- Unix.read r.fd r.buf 0 (Bytes.length r.buf);
    r.len > 0
  end

(** A line up to ['\n'], with the ['\n'] (and a preceding ['\r'])
    stripped; [None] at EOF before any byte.  Raises {!Bad_request} when
    the line runs past [max_line_bytes]. *)
let read_line r : string option =
  let b = Buffer.create 128 in
  let rec go () =
    if not (refill r) then if Buffer.length b = 0 then None else Some ()
    else begin
      let c = Bytes.get r.buf r.pos in
      r.pos <- r.pos + 1;
      if c = '\n' then Some ()
      else if Buffer.length b >= max_line_bytes then
        raise (Bad_request "line too long")
      else begin
        Buffer.add_char b c;
        go ()
      end
    end
  in
  match go () with
  | None -> None
  | Some () ->
      let s = Buffer.contents b in
      let n = String.length s in
      Some (if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s)

let read_exact r n : string option =
  let b = Buffer.create n in
  let rec go remaining =
    if remaining = 0 then Some (Buffer.contents b)
    else if not (refill r) then None
    else begin
      let take = min remaining (r.len - r.pos) in
      Buffer.add_subbytes b r.buf r.pos take;
      r.pos <- r.pos + take;
      go (remaining - take)
    end
  in
  go n

(* ------------------------------------------------------------------ *)
(* Request parsing / response writing                                   *)
(* ------------------------------------------------------------------ *)

let parse_request r : request option =
  match read_line r with
  | None -> None (* client closed without sending anything *)
  | Some line -> (
      match String.split_on_char ' ' line with
      | [ meth; target; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let headers = ref [] in
          let rec read_headers n =
            match read_line r with
            | None | Some "" -> ()
            | Some _ when n >= max_headers ->
                raise (Bad_request "too many headers")
            | Some h ->
                (match String.index_opt h ':' with
                | Some i ->
                    let k = String.lowercase_ascii (String.sub h 0 i) in
                    let v =
                      String.trim
                        (String.sub h (i + 1) (String.length h - i - 1))
                    in
                    headers := (k, v) :: !headers
                | None -> () (* tolerate malformed header lines *));
                read_headers (n + 1)
          in
          read_headers 0;
          let headers = List.rev !headers in
          let body =
            match List.assoc_opt "content-length" headers with
            | None -> ""
            | Some v -> (
                match int_of_string_opt (String.trim v) with
                | Some n when n < 0 || n > max_body_bytes ->
                    raise (Bad_request "content-length out of bounds")
                | Some n -> (
                    match read_exact r n with
                    | Some b -> b
                    | None -> raise (Bad_request "truncated body"))
                | None -> raise (Bad_request "malformed content-length"))
          in
          let path, query = split_target target in
          Some
            { meth = String.uppercase_ascii meth; path; query; headers; body }
      | _ -> raise (Bad_request "malformed request line"))

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

let write_response fd (resp : response) =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      resp.status (reason_phrase resp.status) resp.content_type
      (String.length resp.body)
  in
  write_all fd (head ^ resp.body)

(** Serve one connection: parse a single request, run the handler, write
    the response, leave the socket open for the caller to close.
    Handler exceptions become a 500, malformed requests a 400, and a
    read that hits the socket's receive timeout a 408. *)
let handle_connection fd (handler : request -> response) : unit =
  let resp =
    match parse_request (reader fd) with
    | None -> None
    | Some req -> (
        match handler req with
        | resp -> Some resp
        | exception _ ->
            Some (response ~status:500 "internal server error\n"))
    | exception Bad_request m -> Some (response ~status:400 (m ^ "\n"))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Some (response ~status:408 "request timeout\n")
    | exception _ -> Some (response ~status:400 "malformed request\n")
  in
  match resp with
  | None -> ()
  | Some resp -> ( try write_response fd resp with _ -> ())

(* ------------------------------------------------------------------ *)
(* Listening / accept loop                                              *)
(* ------------------------------------------------------------------ *)

let listen ?(host = "127.0.0.1") ~port () : Unix.file_descr =
  let addr = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close sock;
     raise e);
  Unix.listen sock 64;
  sock

let bound_port sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Http.bound_port: not an inet socket"

let accept_loop ?max_requests ?(should_stop = fun () -> false) sock
    (handler : request -> response) : unit =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let served = ref 0 in
  let continue () =
    (not (should_stop ()))
    && match max_requests with None -> true | Some m -> !served < m
  in
  while continue () do
    (* A signal delivered while blocked in [accept] makes it raise
       EINTR (OCaml does not restart syscalls): loop back to re-check
       [should_stop], which is how a signal handler setting a flag
       turns into a graceful exit.  An in-flight request is never cut
       short — the loop is sequential, so by the time we are back in
       [accept] the previous response has been written and closed. *)
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _peer ->
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
           handle_connection fd handler
         with _ -> ());
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
        (try Unix.close fd with _ -> ());
        incr served
  done
