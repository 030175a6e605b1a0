(* The data files the test stanza depends on sit next to the test
   executable, so they are found from any working directory. *)

let path name = Filename.concat (Filename.dirname Sys.executable_name) name

let read name = In_channel.with_open_text (path name) In_channel.input_all
