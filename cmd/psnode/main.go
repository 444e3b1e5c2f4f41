// Command psnode runs one cluster shard node: a config-free TCP server
// speaking the binary cluster frames in package wire. The node builds its
// deterministic world replica when a coordinator says hello, so the only
// deployment inputs are where to listen and what to call itself in its
// answers and error messages.
//
// Example (one shard of a 2-node loopback cluster):
//
//	psnode -listen 127.0.0.1:9101 -name node0 &
//	psnode -listen 127.0.0.1:9102 -name node1 &
//	psserve -shards 2 -node-addrs 127.0.0.1:9101,127.0.0.1:9102
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/cluster"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:9101", "TCP listen address for coordinator connections")
		name   = flag.String("name", "", "node name the node's answers and error messages carry (default: the listen address)")
	)
	flag.Parse()

	nodeName := *name
	if nodeName == "" {
		nodeName = *listen
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("psnode: %v", err)
	}
	node := cluster.NewNodeServer(nodeName)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		log.Printf("psnode %s: shutting down", nodeName)
		node.Close()
	}()

	log.Printf("psnode %s: listening on %s", nodeName, ln.Addr())
	if err := node.Serve(ln); err != nil {
		log.Fatalf("psnode: %v", err)
	}
}
