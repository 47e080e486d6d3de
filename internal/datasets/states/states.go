// Package states provides the 50-US-states dataset of the paper's §6.1
// (originally "extracted from http://www.50states.com and made available as
// a comma-separated values file"). The data here is the real public record
// — state birds, flowers, capitals, land areas and admission years — which
// lets the reproduction verify the paper's concrete observations: "seven
// states have 'cardinal' in their bird names" and Figure 8's "one state
// (Alaska) having a much larger area than the rest".
//
// Build imports the CSV exactly as the paper received it: every value a
// plain string, no labels (Figure 7). Annotate then adds what the paper's
// schema expert added: property labels and integer value types for area and
// admission year (Figure 8).
package states

import (
	"fmt"
	"strings"

	"magnet/internal/datasets/csvrdf"
	"magnet/internal/rdf"
	"magnet/internal/schema"
)

// NS is the dataset namespace.
const NS = "http://magnet.example.org/states#"

// Column properties (as imported from the CSV header).
var (
	PropName     = csvrdf.Prop(NS, "state")
	PropCapital  = csvrdf.Prop(NS, "capital")
	PropBird     = csvrdf.Prop(NS, "bird")
	PropFlower   = csvrdf.Prop(NS, "flower")
	PropArea     = csvrdf.Prop(NS, "area")
	PropAdmitted = csvrdf.Prop(NS, "admitted")
)

// Build imports the CSV into a fresh graph builder, exactly "as given": plain
// strings, no labels, no types (the Figure 7 configuration). The error
// path only fires if the embedded CSV constant is edited into invalidity.
func Build() (*rdf.Builder, error) {
	g := rdf.NewBuilder()
	if _, err := csvrdf.FromCSV(g, strings.NewReader(csvData), NS, "state"); err != nil {
		return nil, fmt.Errorf("states: embedded CSV: %w", err)
	}
	return g, nil
}

// Annotate adds the paper's Figure 8 annotations: human-readable labels on
// each property and integer value types on area and admission year, which
// unlock range widgets and outlier-visible displays.
func Annotate(g *rdf.Builder) {
	schema.SetLabel(g, PropName, "State")
	schema.SetLabel(g, PropCapital, "Capital")
	schema.SetLabel(g, PropBird, "State bird")
	schema.SetLabel(g, PropFlower, "State flower")
	schema.SetLabel(g, PropArea, "Area (sq mi)")
	schema.SetLabel(g, PropAdmitted, "Year admitted")
	schema.SetValueType(g, PropArea, schema.Integer)
	schema.SetValueType(g, PropAdmitted, schema.Integer)
}

// csvData is the real 50-states record: name, capital, state bird, state
// flower, total area in square miles, year of admission to the Union.
const csvData = `state,capital,bird,flower,area,admitted
Alabama,Montgomery,Yellowhammer,Camellia,52420,1819
Alaska,Juneau,Willow Ptarmigan,Forget-me-not,665384,1959
Arizona,Phoenix,Cactus Wren,Saguaro Cactus Blossom,113990,1912
Arkansas,Little Rock,Mockingbird,Apple Blossom,53179,1836
California,Sacramento,California Valley Quail,California Poppy,163695,1850
Colorado,Denver,Lark Bunting,Rocky Mountain Columbine,104094,1876
Connecticut,Hartford,American Robin,Mountain Laurel,5543,1788
Delaware,Dover,Blue Hen Chicken,Peach Blossom,2489,1787
Florida,Tallahassee,Mockingbird,Orange Blossom,65758,1845
Georgia,Atlanta,Brown Thrasher,Cherokee Rose,59425,1788
Hawaii,Honolulu,Nene,Yellow Hibiscus,10932,1959
Idaho,Boise,Mountain Bluebird,Syringa,83569,1890
Illinois,Springfield,Cardinal,Violet,57914,1818
Indiana,Indianapolis,Cardinal,Peony,36420,1816
Iowa,Des Moines,Eastern Goldfinch,Wild Rose,56273,1846
Kansas,Topeka,Western Meadowlark,Sunflower,82278,1861
Kentucky,Frankfort,Cardinal,Goldenrod,40408,1792
Louisiana,Baton Rouge,Brown Pelican,Magnolia,52378,1812
Maine,Augusta,Black-capped Chickadee,White Pine Cone and Tassel,35380,1820
Maryland,Annapolis,Baltimore Oriole,Black-eyed Susan,12406,1788
Massachusetts,Boston,Black-capped Chickadee,Mayflower,10554,1788
Michigan,Lansing,American Robin,Apple Blossom,96714,1837
Minnesota,St. Paul,Common Loon,Pink and White Lady's Slipper,86936,1858
Mississippi,Jackson,Mockingbird,Magnolia,48432,1817
Missouri,Jefferson City,Eastern Bluebird,Hawthorn,69707,1821
Montana,Helena,Western Meadowlark,Bitterroot,147040,1889
Nebraska,Lincoln,Western Meadowlark,Goldenrod,77348,1867
Nevada,Carson City,Mountain Bluebird,Sagebrush,110572,1864
New Hampshire,Concord,Purple Finch,Purple Lilac,9349,1788
New Jersey,Trenton,Eastern Goldfinch,Purple Violet,8723,1787
New Mexico,Santa Fe,Greater Roadrunner,Yucca Flower,121590,1912
New York,Albany,Eastern Bluebird,Rose,54555,1788
North Carolina,Raleigh,Cardinal,Flowering Dogwood,53819,1789
North Dakota,Bismarck,Western Meadowlark,Wild Prairie Rose,70698,1889
Ohio,Columbus,Cardinal,Scarlet Carnation,44826,1803
Oklahoma,Oklahoma City,Scissor-tailed Flycatcher,Mistletoe,69899,1907
Oregon,Salem,Western Meadowlark,Oregon Grape,98379,1859
Pennsylvania,Harrisburg,Ruffed Grouse,Mountain Laurel,46054,1787
Rhode Island,Providence,Rhode Island Red,Violet,1545,1790
South Carolina,Columbia,Carolina Wren,Yellow Jessamine,32020,1788
South Dakota,Pierre,Ring-necked Pheasant,Pasque Flower,77116,1889
Tennessee,Nashville,Mockingbird,Iris,42144,1796
Texas,Austin,Mockingbird,Bluebonnet,268596,1845
Utah,Salt Lake City,California Gull,Sego Lily,84897,1896
Vermont,Montpelier,Hermit Thrush,Red Clover,9616,1791
Virginia,Richmond,Cardinal,American Dogwood,42775,1788
Washington,Olympia,Willow Goldfinch,Coast Rhododendron,71298,1889
West Virginia,Charleston,Cardinal,Rhododendron,24230,1863
Wisconsin,Madison,American Robin,Wood Violet,65496,1848
Wyoming,Cheyenne,Western Meadowlark,Indian Paintbrush,97813,1890
`
