(** The transport seam: one address type for both Unix-domain sockets
    and loopback/LAN TCP, so the line-delimited-JSON protocol runs
    unchanged over either. The server binds one, the client connects to
    one, and the cluster router speaks to its shards through the same
    seam — codec, deadlines, and shedding are transport-agnostic. *)

type t =
  | Unix_path of string  (** Unix domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val of_string_result : string -> (t, string) result
(** Parse an endpoint string. ["unix:PATH"] and ["tcp:HOST:PORT"] are
    explicit; a bare ["HOST:PORT"] (port all digits, no ['/'] in the
    host) is TCP; anything else is a Unix socket path. IPv6 literals
    use brackets: ["tcp:[::1]:8080"]. ["HOST:0"] asks the kernel for
    an ephemeral port — read it back with {!bound_endpoint}. Returns
    [Error reason] for empty endpoints, empty hosts/ports/paths in the
    explicit forms, and out-of-range ports — CLI layers print the
    reason as a usage error instead of a backtrace. *)

val of_string : string -> t
(** {!of_string_result}, raising [Invalid_argument] on [Error]. *)

val to_string : t -> string
(** Inverse of {!of_string}: ["PATH"] for Unix paths, ["HOST:PORT"]
    for TCP. *)

val sockaddr : t -> Unix.sockaddr
(** The address to bind or connect. Raises [Invalid_argument] if a TCP
    host does not resolve. *)

val listen : ?backlog:int -> t -> Unix.file_descr
(** Bind and listen (backlog 64 by default). Unix paths remove a stale
    socket file first; TCP sockets set [SO_REUSEADDR]. Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val connect : ?timeout:float -> t -> Unix.file_descr
(** A connected socket (TCP sets [TCP_NODELAY]: frames are small and
    latency-bound). With [timeout], the connect itself fails after that
    many seconds ([SO_SNDTIMEO], which Linux applies to connect) rather
    than waiting out the SYN retries of a peer whose accept backlog is
    full; the bound is lifted once connected. Raises [Unix.Unix_error]
    on refusal or timeout. *)

val bound_endpoint : t -> Unix.file_descr -> t
(** The endpoint actually bound, read back from the kernel — resolves
    port 0 to the ephemeral port assigned. *)

val cleanup : t -> unit
(** Remove the socket file of a Unix-path endpoint (no-op for TCP). *)

(** {2 Fault-pointed transport I/O}

    Every accept/read/write in the serving stack goes through these
    wrappers so transport-level chaos — refused accepts, dropped
    reads, stalled links, torn frames — is injectable deterministically
    via the [endpoint.*] fault points. *)

val accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr
(** [Unix.accept ~cloexec:true] behind fault point [endpoint.accept]. *)

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read] behind fault point [endpoint.read]. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string. Fault point [endpoint.stall] fires before
    any byte moves (arm it with a delay action to simulate a slow
    link); [endpoint.write.torn] writes a prefix of the payload and
    then raises [Fault.Injected], leaving the peer holding a half
    frame that must be discarded at connection close. *)
