package client_test

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"spd3/client"
)

// TestSchemaMatchesWireTypes holds docs/schema/*.json to the wire types:
// at every object level a schema describes, its properties are exactly
// the type's json tags and its required list exactly the tags without
// omitempty. A field added to one side only fails here.
func TestSchemaMatchesWireTypes(t *testing.T) {
	for file, typ := range map[string]reflect.Type{
		"job.schema.json":    reflect.TypeFor[client.JobStatus](),
		"result.schema.json": reflect.TypeFor[client.Report](),
		"error.schema.json":  reflect.TypeFor[client.ErrorReport](),
	} {
		data, err := os.ReadFile("../docs/schema/" + file)
		if err != nil {
			t.Fatal(err)
		}
		var schema map[string]any
		if err := json.Unmarshal(data, &schema); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		checkSchema(t, file, schema, typ)
	}
}

// checkSchema compares one schema object with one struct type and
// descends into every property (or array item) that itself declares
// properties.
func checkSchema(t *testing.T, path string, schema map[string]any, typ reflect.Type) {
	t.Helper()
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		t.Errorf("%s: schema declares properties, %v is not a struct", path, typ)
		return
	}
	var tags, mandatory []string
	fields := map[string]reflect.Type{}
	for i := range typ.NumField() {
		name, opts, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" {
			t.Errorf("%s: %v.%s has no json name", path, typ, typ.Field(i).Name)
			continue
		}
		tags = append(tags, name)
		fields[name] = typ.Field(i).Type
		if !strings.Contains(opts, "omitempty") {
			mandatory = append(mandatory, name)
		}
	}
	props, _ := schema["properties"].(map[string]any)
	var keys, required []string
	for k := range props {
		keys = append(keys, k)
	}
	for _, r := range schema["required"].([]any) {
		required = append(required, r.(string))
	}
	for _, l := range []*[]string{&tags, &mandatory, &keys, &required} {
		slices.Sort(*l)
	}
	if !slices.Equal(keys, tags) {
		t.Errorf("%s: schema properties %v, %v json tags %v", path, keys, typ, tags)
	}
	if !slices.Equal(required, mandatory) {
		t.Errorf("%s: schema requires %v, %v tags without omitempty %v", path, required, typ, mandatory)
	}
	for k, p := range props {
		sub, _ := p.(map[string]any)
		if items, ok := sub["items"].(map[string]any); ok {
			sub = items
		}
		if _, ok := sub["properties"]; ok && fields[k] != nil {
			checkSchema(t, path+"#"+k, sub, fields[k])
		}
	}
}
