package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"hippo"
	"hippo/internal/hclient"
	"hippo/internal/server"
)

// target is the user surface a workload drives: the embedded hippo.DB API,
// or hippod's HTTP API through hclient. Reads return the answer reduced to
// row count and hash.
type target interface {
	consistent(q *query) (answer, error)
	plain(q *query) (answer, error)
	aggregate(q *query) (answer, error)
	exec(sql string) error
	batch(sqls []string) error
}

// embedded drives hippo.DB directly. One value per client: buf is reused.
type embedded struct {
	db *hippo.DB
	rh rowHash
}

func (e *embedded) reduce(res *hippo.Result) answer {
	var a answer
	for _, t := range res.Rows {
		for _, v := range t {
			if v.IsNumeric() {
				e.rh.int(v.I)
			} else {
				e.rh.str(v.S)
			}
		}
		e.rh.add(&a)
	}
	return a
}

func (e *embedded) consistent(q *query) (answer, error) {
	res, _, err := e.db.ConsistentQuery(q.sql)
	if err != nil {
		return answer{}, err
	}
	return e.reduce(res), nil
}

func (e *embedded) plain(q *query) (answer, error) {
	res, err := e.db.Query(q.sql)
	if err != nil {
		return answer{}, err
	}
	return e.reduce(res), nil
}

var aggFuncs = [...]hippo.AggFunc{aggMin: hippo.AggMin, aggMax: hippo.AggMax, aggSum: hippo.AggSum}

func (e *embedded) aggregate(q *query) (answer, error) {
	r, err := e.db.ConsistentAggregate("emp", aggFuncs[q.fn], "salary", q.sql)
	if err != nil {
		return answer{}, err
	}
	if r.MayBeEmpty {
		return answer{}, fmt.Errorf("aggregate %s: range may be empty", q.sql)
	}
	return rangeAnswer(r.Lower.I, r.Upper.I), nil
}

func (e *embedded) exec(sql string) error {
	_, _, err := e.db.Exec(sql)
	return err
}

func (e *embedded) batch(sqls []string) error {
	_, err := e.db.ExecBatch(sqls...)
	return err
}

// remote drives a hippod server. One value per client; all share the
// http.Client, whose transport holds one keep-alive connection per client.
type remote struct {
	c        *hclient.Client
	rh       rowHash
	rejected *atomic.Int64 // the service's count of overloaded replies
}

// seen counts an admission refusal and passes err on.
func (r *remote) seen(err error) error {
	if errors.Is(err, hclient.ErrOverloaded) {
		r.rejected.Add(1)
	}
	return err
}

func (r *remote) reduce(res *hclient.Result) (answer, error) {
	var a answer
	for _, row := range res.Rows {
		for _, v := range row {
			switch v := v.(type) {
			case float64: // every number of the dataset is an integer
				r.rh.int(int64(v))
			case string:
				r.rh.str(v)
			default:
				return answer{}, fmt.Errorf("unexpected wire value %T", v)
			}
		}
		r.rh.add(&a)
	}
	if a.n != res.Count {
		return answer{}, fmt.Errorf("response count %d, %d rows", res.Count, a.n)
	}
	return a, nil
}

func (r *remote) consistent(q *query) (answer, error) {
	res, err := r.c.ConsistentQuery(context.Background(), q.sql, hclient.QueryOpts{})
	if err != nil {
		return answer{}, r.seen(err)
	}
	return r.reduce(res)
}

func (r *remote) plain(q *query) (answer, error) {
	res, err := r.c.Query(context.Background(), q.sql, hclient.QueryOpts{})
	if err != nil {
		return answer{}, r.seen(err)
	}
	return r.reduce(res)
}

func (r *remote) aggregate(q *query) (answer, error) {
	return answer{}, fmt.Errorf("hippod has no aggregate endpoint")
}

func (r *remote) exec(sql string) error {
	_, _, err := r.c.Exec(context.Background(), sql)
	return r.seen(err)
}

func (r *remote) batch(sqls []string) error {
	_, err := r.c.Batch(context.Background(), sqls...)
	return r.seen(err)
}

// service is a hippod server on a loopback socket, in this process.
type service struct {
	srv      *server.Server
	http     *httptest.Server
	hc       *http.Client
	rejected atomic.Int64
}

// startService serves db. The server takes ownership of db: stop closes it.
func startService(db *hippo.DB, conns int) *service {
	srv := server.New(db, server.Config{})
	ts := httptest.NewServer(srv)
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &service{srv: srv, http: ts, hc: &http.Client{Transport: tr}}
}

func (s *service) client() *remote {
	return &remote{c: hclient.New(s.http.URL, s.hc), rejected: &s.rejected}
}

func (s *service) stop() error {
	s.hc.CloseIdleConnections()
	s.http.Close()
	return s.srv.Close()
}
