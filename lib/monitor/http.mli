(** Minimal dependency-free HTTP/1.1 server over Unix sockets.

    One request per connection (responses always carry
    [Connection: close]); request-line and header parsing,
    [Content-Length] bodies, percent-decoded query strings.  The accept
    loop is sequential — the middleware session it fronts is
    single-threaded anyway — and [max_requests] bounds it for tests and
    smoke jobs.  Nothing here depends on the rest of the middleware: a
    handler is just [request -> response]. *)

type request = {
  meth : string;  (** uppercase, e.g. ["GET"] *)
  path : string;  (** decoded path, no query string *)
  query : (string * string) list;  (** decoded query parameters *)
  headers : (string * string) list;  (** keys lowercased *)
  body : string;
}

type response = { status : int; content_type : string; body : string }

val response : ?status:int -> ?content_type:string -> string -> response
(** Defaults: status 200, [text/plain; charset=utf-8]. *)

val reason_phrase : int -> string

val percent_decode : string -> string
(** ['%xx'] escapes and ['+'] for space. *)

val parse_query : string -> (string * string) list
(** Decode a raw query string (["a=1&b=2"]). *)

val handle_connection : Unix.file_descr -> (request -> response) -> unit
(** Serve exactly one request from an open socket: parse, run the
    handler, write the response.  Handler exceptions become a 500,
    malformed requests a 400 — among them a line over 16 KiB or more
    than 100 header lines — and a connection closed before any byte is
    ignored.  The caller closes the socket. *)

val listen : ?host:string -> port:int -> unit -> Unix.file_descr
(** Bind and listen on [host] (default ["127.0.0.1"]); [port] 0 picks a
    free port — recover it with {!bound_port}. *)

val bound_port : Unix.file_descr -> int

val accept_loop :
  ?max_requests:int ->
  ?should_stop:(unit -> bool) ->
  Unix.file_descr ->
  (request -> response) ->
  unit
(** Accept and serve connections sequentially, forever — or until
    [max_requests] connections were served or [should_stop] returns
    true.  [should_stop] (default never) is re-checked before every
    accept {e and} whenever a signal interrupts the blocking accept
    (EINTR), so a [Signal_handle] that sets a flag drains the in-flight
    request and then exits the loop — graceful shutdown without
    threads.  Ignores [SIGPIPE]. *)

val serve :
  ?host:string ->
  port:int ->
  ?max_requests:int ->
  ?should_stop:(unit -> bool) ->
  (request -> response) ->
  unit
(** {!listen} + {!accept_loop}, closing the listening socket on exit. *)
