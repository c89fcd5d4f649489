// Package cli is the plumbing the commands under cmd/ share, one copy
// each: where a transaction stream goes (Sink: a framed file or stdout,
// or a transport sensor dialing one collector or a fleet), how a web UI
// starts (Serve), and how a run's error becomes an exit code (Usage,
// Exit).
//
// Every command has one shape. main builds what only a process has — a
// signal context, os.Args, the standard streams — calls run and passes
// cli.Exit of its error to os.Exit. run declares its flags on its own
// flag.FlagSet (defaults differ between commands, so the declarations
// stay in each binary) and returns every failure instead of exiting, so
// its deferred closes run and tests drive it in process.
package cli
