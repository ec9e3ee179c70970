// Command lmpctl inspects and drives lmpd daemons: query region info,
// allocate and free, read and write bytes, resize the private/shared
// split, and ship a sum kernel.
//
// Usage:
//
//	lmpctl -server 127.0.0.1:7070 info
//	lmpctl -server 127.0.0.1:7070 stats
//	lmpctl -server 127.0.0.1:7070 alloc 1048576
//	lmpctl -server 127.0.0.1:7070 write 4096 "hello pool"
//	lmpctl -server 127.0.0.1:7070 read 4096 10
//	lmpctl -server 127.0.0.1:7070 sum 0 1048576
//	lmpctl -server 127.0.0.1:7070 resize 268435456
//	lmpctl -server 127.0.0.1:7070 free 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"github.com/lmp-project/lmp/internal/daemon"
)

var server = flag.String("server", "127.0.0.1:7070", "daemon address")

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lmpctl -server ADDR {info | stats | alloc N | free OFF | read OFF N | write OFF DATA | sum OFF N | resize N}")
	os.Exit(2)
}

func argInt(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		log.Fatalf("lmpctl: bad number %q: %v", s, err)
	}
	return v
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c, err := daemon.Dial(*server)
	if err != nil {
		log.Fatalf("lmpctl: %v", err)
	}
	defer c.Close()

	switch args[0] {
	case "info":
		info, err := c.Info()
		if err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Printf("name=%s capacity=%d shared=%d in_use=%d private=%d\n",
			info.Name, info.Capacity, info.Shared, info.InUse, info.Capacity-info.Shared)
	case "alloc":
		if len(args) != 2 {
			usage()
		}
		var off [1]int64
		if err := c.Alloc(argInt(args[1]), off[:]); err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Printf("offset=%d\n", off[0])
	case "free":
		if len(args) != 2 {
			usage()
		}
		if err := c.Free(argInt(args[1])); err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Println("freed")
	case "read":
		if len(args) != 3 {
			usage()
		}
		data, err := c.Read(argInt(args[1]), int(argInt(args[2])))
		if err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Printf("%q\n", data)
	case "write":
		if len(args) != 3 {
			usage()
		}
		if err := c.Write(argInt(args[1]), []byte(args[2])); err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Println("written")
	case "sum":
		if len(args) != 3 {
			usage()
		}
		sum, err := c.Sum(argInt(args[1]), int(argInt(args[2])))
		if err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Printf("sum=%g\n", sum)
	case "resize":
		if len(args) != 2 {
			usage()
		}
		if err := c.Resize(argInt(args[1])); err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Println("resized")
	case "stats":
		st, err := c.Stats()
		if err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		out, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			log.Fatalf("lmpctl: %v", err)
		}
		fmt.Println(string(out))
	default:
		usage()
	}
}
