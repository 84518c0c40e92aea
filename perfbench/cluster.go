package main

import (
	"context"
	"fmt"

	"rocksteady/internal/client"
	"rocksteady/internal/cluster"
	"rocksteady/internal/coordinator"
	"rocksteady/internal/core"
	"rocksteady/internal/server"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// rig is a running 2-server cluster, built either on the in-process fabric
// (cluster.New) or on loopback TCP, with one control client and the load
// clients attached. Both shapes expose the same handles, so the phases and
// the per-layer snapshots never look at which transport is underneath.
type rig struct {
	servers  []*server.Server
	managers []*core.Manager
	ctl      *client.Client   // table creation, migrations, read-back
	load     []*client.Client // one per closed-loop client goroutine
	table    wire.TableID
	// messages counts every message delivered so far, cluster-wide.
	messages func() int64
	close    func()
}

func newRig(ctx context.Context, w workload, records, clients, workers int) (*rig, error) {
	if w.tcp {
		return newTCPRig(ctx, w, records, clients, workers)
	}
	return newFabricRig(w, records, clients, workers)
}

func newFabricRig(w workload, records, clients, workers int) (*rig, error) {
	c := cluster.New(cluster.Config{
		Servers:           2,
		Workers:           workers,
		HashTableCapacity: records + 1024,
		ReplicationFactor: w.rf,
		Quiet:             true,
	})
	r := &rig{
		servers:  c.Servers,
		managers: c.Managers,
		messages: func() int64 { n, _ := c.Fabric.Stats(); return n },
		close:    c.Close,
	}
	for i := 0; i <= clients; i++ {
		cl, err := c.NewClient()
		if err != nil {
			c.Close()
			return nil, err
		}
		if i == 0 {
			r.ctl = cl
		} else {
			r.load = append(r.load, cl)
		}
	}
	return r, nil
}

// newTCPRig wires the coordinator, both servers with their migration
// managers, and the clients over loopback TCP, one listener each, the way
// a deployment of separate processes would be wired.
func newTCPRig(ctx context.Context, w workload, records, clients, workers int) (*rig, error) {
	ids := []wire.ServerID{wire.CoordinatorID, cluster.FirstServerID, cluster.FirstServerID + 1}
	for i := 0; i <= clients; i++ {
		ids = append(ids, 900+wire.ServerID(i))
	}
	eps := make([]*transport.TCP, 0, len(ids))
	closeEPs := func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}
	peers := make(map[wire.ServerID]string, len(ids))
	for _, id := range ids {
		ep, err := transport.NewTCP(transport.TCPConfig{ID: id, ListenAddr: "127.0.0.1:0"})
		if err != nil {
			closeEPs()
			return nil, err
		}
		eps = append(eps, ep)
		peers[id] = ep.Addr()
	}
	for _, ep := range eps {
		m := make(map[wire.ServerID]string, len(peers)-1)
		for id, addr := range peers {
			if id != ep.LocalID() {
				m[id] = addr
			}
		}
		ep.SetPeers(m)
	}

	coordNode := transport.NewNode(eps[0])
	coord := coordinator.New(coordNode)
	coord.Logf = func(string, ...any) {}
	r := &rig{}
	nodes := []*transport.Node{coordNode}
	for i, ep := range eps[1:3] {
		var backups []wire.ServerID
		if w.rf > 0 {
			backups = []wire.ServerID{ids[2-i]}
		}
		srv := server.New(server.Config{
			ID:                ids[1+i],
			Workers:           workers,
			HashTableCapacity: records + 1024,
			Backups:           backups,
			ReplicationFactor: w.rf,
		}, ep)
		r.servers = append(r.servers, srv)
		r.managers = append(r.managers, core.NewManager(srv, core.Options{}))
		nodes = append(nodes, srv.Node())
	}
	var all []*client.Client
	r.close = func() {
		for _, cl := range all {
			cl.Close()
		}
		for _, s := range r.servers {
			s.Close()
		}
		coord.Close()
		closeEPs()
	}
	for _, ep := range eps[3:] {
		cl, err := client.New(ctx, ep)
		if err != nil {
			r.close()
			return nil, err
		}
		all = append(all, cl)
		nodes = append(nodes, cl.Node())
	}
	r.ctl, r.load = all[0], all[1:]
	for _, id := range ids[1:3] {
		if _, err := r.ctl.Node().Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.EnlistServerRequest{Server: id}); err != nil {
			r.close()
			return nil, fmt.Errorf("enlist %v: %w", id, err)
		}
	}
	r.messages = func() int64 {
		var n int64
		for _, nd := range nodes {
			n += nd.DispatchedMessages()
		}
		return n
	}
	return r, nil
}

// preload creates the table on server 0 and appends every record straight
// into its log and hash table, as the paper pre-loads before measuring,
// then waits for replication. The load clients refresh their tablet maps
// afterwards, so they start out routing to server 0.
func (r *rig) preload(ctx context.Context, in *inputs) error {
	table, err := r.ctl.CreateTable(ctx, "usertable", r.servers[0].ID())
	if err != nil {
		return err
	}
	r.table = table
	srv := r.servers[0]
	for i := 0; i < in.n; i++ {
		key := in.key(uint32(i))
		ref, _, err := srv.Log().AppendObject(table, key, in.preload(uint32(i)))
		if err != nil {
			return err
		}
		if prev, existed := srv.HashTable().Put(table, key, wire.HashKey(key), ref); existed {
			srv.Log().MarkDead(prev)
		}
	}
	if err := srv.Replicator().Sync(ctx); err != nil {
		return err
	}
	for _, cl := range r.load {
		if err := cl.RefreshMap(ctx); err != nil {
			return err
		}
	}
	return nil
}
