package exp

import "testing"

// hostileEnvelope is an unsealed envelope with no rows whose header
// claims total cells: Merge must reject an absurd total by its range
// checks, never size anything from it.
func hostileEnvelope(total string) []byte {
	return []byte(`{"schema_version":3,"fingerprint":"feedfacefeedface","plan":"shard-test","seed":5,"quick":true,` +
		`"total_cells":` + total + `,"range":{"lo":0,"hi":0},"go_version":"go","wall_ms":0,"cells":[]}`)
}

// FuzzShardEnvelope feeds arbitrary bytes through the path suu-bench
// -merge runs on shard files: decode each of two envelopes, merge the
// ones that decode. No input may panic, and an accepted merge must
// hold exactly TotalCells rows, row i tagged index i.
func FuzzShardEnvelope(f *testing.F) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	var envs [][]byte
	for _, s := range runShards(cfg, plan, ShardRanges(plan.NumCells(), 2)) {
		data, err := EncodeShardFile(s)
		if err != nil {
			f.Fatal(err)
		}
		envs = append(envs, data)
	}
	f.Add(envs[0], envs[1])
	f.Add(envs[1], []byte(nil))
	// Two envelopes in one input, as cat a.json b.json writes them.
	f.Add(append(append([]byte(nil), envs[0]...), envs[1]...), []byte(nil))
	f.Add(hostileEnvelope("-1"), []byte(nil))
	f.Add(hostileEnvelope("1099511627776"), []byte(nil))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var shards []*ShardFile
		for _, data := range [][]byte{a, b} {
			if s, err := DecodeShardFile(data); err == nil {
				shards = append(shards, s)
			}
		}
		m, err := Merge(shards)
		if err != nil {
			return
		}
		if len(m.Cells) != m.TotalCells {
			t.Fatalf("merge accepted %d rows for %d cells", len(m.Cells), m.TotalCells)
		}
		for i, row := range m.Cells {
			if row.Index != i {
				t.Fatalf("merged row %d tagged index %d", i, row.Index)
			}
		}
	})
}
