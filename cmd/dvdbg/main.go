// Command dvdbg is the debugger front end (the paper's §4 GUI process,
// rendered as a REPL). It either connects to a running dvserve over TCP or
// hosts the whole session in-process:
//
//	dvdbg -connect host:port            attach to dvserve
//	dvdbg -t trace.dvt <prog>           replay and debug in-process
package main

import (
	"bufio"
	"fmt"
	"net"
	"os"

	"flag"

	"dejavu/internal/cli"
	"dejavu/internal/core"
	"dejavu/internal/dbgproto"
	"dejavu/internal/debugger"
	"dejavu/internal/vm"
)

func main() {
	connect := flag.String("connect", "", "attach to a dvserve debug endpoint")
	session := flag.String("session", "", "session ID to attach on a multi-tenant dvserve (with -connect)")
	traceIn := flag.String("t", "trace.dvt", "trace input file (in-process mode)")
	flag.Parse()
	var err error
	if *connect != "" {
		err = remoteREPL(*connect, *session)
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: dvdbg -connect host:port | dvdbg -t trace.dvt <prog>")
			os.Exit(2)
		}
		err = localREPL(flag.Arg(0), *traceIn)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvdbg:", err)
		os.Exit(1)
	}
}

func remoteREPL(addr, session string) error {
	// The reconnecting client survives a dvserve restart (or a dropped
	// connection) with capped exponential backoff instead of dying at the
	// first transport hiccup.
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dvdbg: "+format+"\n", args...)
	}
	c, err := dbgproto.DialRetry(addr, logf)
	if err != nil {
		return err
	}
	defer c.Close()
	send := func(cmd string) (string, error) { return c.Send(cmd) }
	if session != "" {
		// Multi-tenant dvserve: bind this connection to a session, and
		// re-bind transparently after any reconnect (the attachment is
		// per-connection state the server forgets on transport loss).
		send = func(cmd string) (string, error) {
			if _, err := c.Send("attach " + session); err != nil {
				return "", err
			}
			return c.Send(cmd)
		}
		if _, err := send("status"); err != nil {
			return fmt.Errorf("attach %s: %w", session, err)
		}
		fmt.Printf("connected to %s, session %s (type help)\n", addr, session)
		return repl(send)
	}
	fmt.Printf("connected to %s (type help)\n", addr)
	return repl(send)
}

func localREPL(progArg, traceIn string) error {
	prog, err := cli.LoadProgram(progArg)
	if err != nil {
		return err
	}
	img, err := vm.NewImage(prog)
	if err != nil {
		return err
	}
	traceBytes, err := os.ReadFile(traceIn)
	if err != nil {
		return err
	}
	eng, _, err := cli.BuildEngine(img, cli.EngineFlags{Mode: core.ModeReplay, TraceIn: traceBytes})
	if err != nil {
		return err
	}
	m, err := vm.Load(img, vm.Config{Engine: eng})
	if err != nil {
		return err
	}
	d := debugger.New(m)
	// Host a loopback server so both modes share one command surface.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	srv := &dbgproto.Server{D: d}
	go srv.Serve(l)
	c, err := dbgproto.Dial(l.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("debugging %s replaying %s (type help)\n", progArg, traceIn)
	return repl(func(cmd string) (string, error) { return c.Send(cmd) })
}

func repl(send func(string) (string, error)) error {
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("(dvdbg) ")
		if !sc.Scan() {
			return nil
		}
		line := sc.Text()
		if line == "" {
			continue
		}
		body, err := send(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Print(body)
		if line == "quit" {
			return nil
		}
	}
}
